//! The sharded session scheduler: shared-nothing workers plus
//! step-quantum time-slicing of long runs.
//!
//! A single session's long `run` must not block every other
//! connection, so the serving layer is parallel in the same shape
//! PARULEL is:
//!
//! * **Sharding** — sessions are distributed across N worker threads by
//!   an FNV-1a hash of the session name ([`shard_of`]). Each worker
//!   owns a whole [`Server`] outright: no locks, no sharing, and every
//!   frame for one session executes on one thread in arrival order
//!   (per-session frame ordering is exactly the old single-server
//!   guarantee).
//! * **Step-quantum runs** — a `run`/`run-to-fixpoint` frame executes
//!   `--run-quantum` cycles, then parks on the worker's run queue while
//!   neighbor frames are served; parked runs advance round-robin, one
//!   quantum per turn. Frames addressed to a session with a parked run
//!   are deferred behind it, preserving per-session ordering (the
//!   server itself would refuse the mutating ones). Slicing is the
//!   server's only run path (quantum `0` is one slice covering the
//!   whole run), so a sliced run answers exactly as an unsliced one.
//!   The run itself lives in the server's session record and its
//!   engine; a shard keeps only transport state per parked run — the
//!   reply that delivers its response and the frames deferred behind
//!   it.
//! * **One parse per frame** — [`Sched::submit`] parses each line once;
//!   the shard job carries the parsed frame (or its parse error), the
//!   shard reads its `session` field to decide deferral, and
//!   [`Server::handle_parsed`] dispatches it.
//! * **Bounded inboxes** — each shard's inbox is a bounded channel; a
//!   full inbox refuses the frame with the same `backpressure` error
//!   kind the per-session inject queue uses. Nothing in the daemon
//!   buffers without bound.
//!
//! Server-level control frames (`ping`, `metrics`, `sync`) broadcast to
//! every shard *through the same inboxes* (so they order correctly
//! against session frames already queued) and merge deterministically;
//! with one worker they pass through a single server untouched, which
//! keeps the golden transcripts byte-for-byte. `shutdown` first drains
//! every shard's parked runs — delivering their responses — then
//! persists, so a shutdown mid-`run` recovers with the same fingerprint
//! as an uninterrupted run.

use crate::protocol::{kind, ok_frame, Failure};
use crate::server::Server;
use parulel_engine::Json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::thread;

/// A response callback: called exactly once with the rendered response
/// frame. Transports capture their connection/sequence bookkeeping in
/// it; tests capture a channel sender.
pub type Reply = Box<dyn FnOnce(Option<String>) + Send + 'static>;

/// How many queued jobs a worker handles per turn while runs are
/// parked. Bounds how long a flood of new frames can starve the run
/// queue (liveness in both directions).
const JOBS_PER_TURN: usize = 32;

/// FNV-1a over the session name, reduced mod `shards`. Stable across
/// runs, platforms, and restarts — a durable daemon restarted with the
/// same `--workers` recovers every session onto the shard that owns it,
/// and recovery on shard k can filter the WAL directory to its own
/// sessions.
pub fn shard_of(session: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (parulel_core::fnv1a(session.as_bytes()) % shards as u64) as usize
}

/// One unit of work routed to a shard worker.
enum Job {
    /// A parsed frame (or its parse error) for a session owned by this
    /// shard (or, with no session field, any server-level frame at
    /// `workers == 1`).
    Line { frame: ParsedFrame, reply: Reply },
    /// A server-level frame executed on every shard; the dispatcher
    /// merges the per-shard responses.
    Control {
        frame: Json,
        reply: SyncSender<Json>,
    },
    /// Drain parked runs (delivering their responses), execute the
    /// shutdown frame (persisting when durable), reply, and stop.
    Shutdown {
        frame: Json,
        reply: SyncSender<Json>,
    },
}

/// A request line as [`Sched::submit`] parsed it.
type ParsedFrame = Result<Json, String>;

/// A parked run's connection-side state: the reply that
/// delivers the eventual `run` response, plus frames for the same
/// session deferred behind it (per-session ordering).
struct ParkedSession {
    reply: Reply,
    deferred: VecDeque<(ParsedFrame, Reply)>,
}

/// One shard worker: an owned [`Server`], an inbox, and the run queue.
struct Shard {
    server: Server,
    quantum: u64,
    inbox: Receiver<Job>,
    parked: BTreeMap<String, ParkedSession>,
    /// Round-robin order over `parked`.
    rr: VecDeque<String>,
}

impl Shard {
    fn run(mut self) {
        loop {
            if self.rr.is_empty() {
                // Nothing runnable: block. No polling, no timeouts — an
                // idle shard wakes only for work or daemon teardown
                // (channel disconnect).
                match self.inbox.recv() {
                    Ok(job) => {
                        if self.handle_job(job) {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            } else {
                // Runs are parked: interleave queued frames (bounded,
                // so a frame flood cannot starve the runs) with one
                // quantum of the next run.
                let mut down = false;
                for _ in 0..JOBS_PER_TURN {
                    match self.inbox.try_recv() {
                        Ok(job) => {
                            if self.handle_job(job) {
                                down = true;
                                break;
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            down = true;
                            break;
                        }
                    }
                }
                if down {
                    break;
                }
                self.turn();
            }
        }
    }

    /// Handles one job; returns true when the shard should stop.
    fn handle_job(&mut self, job: Job) -> bool {
        match job {
            Job::Line { frame, reply } => {
                self.handle_line(frame, reply);
                false
            }
            Job::Control { frame, reply } => {
                let response = self.server.handle_frame(&frame);
                let _ = reply.send(response);
                false
            }
            Job::Shutdown { frame, reply } => {
                // Drain in-flight runs to a cycle boundary and deliver
                // their responses (then any frames deferred behind
                // them, in order) before the shutdown itself executes.
                while !self.parked.is_empty() {
                    for (name, response) in self.server.drain_runs() {
                        if let Some(st) = self.parked.remove(&name) {
                            (st.reply)(Some(response));
                            for (frame, reply) in st.deferred {
                                self.handle_line(frame, reply);
                            }
                        }
                    }
                }
                self.rr.clear();
                let response = self.server.handle_frame(&frame);
                let _ = reply.send(response);
                true
            }
        }
    }

    fn handle_line(&mut self, frame: ParsedFrame, reply: Reply) {
        let session = frame.as_ref().ok().and_then(|f| f.get("session")).and_then(Json::as_str);
        // Frames addressed to a session with a parked run wait behind
        // it: per-session frame ordering is never reordered by slicing.
        if let Some(st) = session.and_then(|name| self.parked.get_mut(name)) {
            st.deferred.push_back((frame, reply));
            return;
        }
        match self.server.handle_parsed(&frame, self.quantum) {
            Some(response) => reply(Some(response)),
            None => {
                let name = session.expect("only a session's run parks").to_string();
                self.parked.insert(
                    name.clone(),
                    ParkedSession {
                        reply,
                        deferred: VecDeque::new(),
                    },
                );
                self.rr.push_back(name);
            }
        }
    }

    /// One scheduler turn: advance the next parked run by one quantum;
    /// on completion deliver its response and replay its deferred
    /// frames.
    fn turn(&mut self) {
        let Some(name) = self.rr.pop_front() else {
            return;
        };
        match self.server.resume_run(&name, self.quantum) {
            None => self.rr.push_back(name),
            Some(response) => {
                if let Some(st) = self.parked.remove(&name) {
                    (st.reply)(Some(response));
                    for (frame, reply) in st.deferred {
                        self.handle_line(frame, reply);
                    }
                }
            }
        }
    }
}

/// How a submitted line was routed; see [`Sched::submit`].
pub enum Submitted {
    /// The line was queued (or refused with an immediate backpressure
    /// frame); the reply callback delivers the response.
    Dispatched,
    /// The line is a `shutdown` frame. The caller must execute
    /// [`Sched::shutdown`] and deliver the merged response through the
    /// returned reply (transports then stop accepting and flush).
    Shutdown(Reply),
}

/// The dispatcher-side handle: shard inboxes plus worker join handles.
pub struct Sched {
    inboxes: Vec<SyncSender<Job>>,
    handles: Vec<thread::JoinHandle<()>>,
    durable: bool,
}

impl Sched {
    /// Spawns one worker thread per server; each worker owns its server
    /// outright (shared-nothing). `quantum` is the per-slice cycle
    /// budget for runs (0: one slice covering the whole run); `inbox_cap`
    /// bounds each shard's inbox.
    pub fn start(servers: Vec<Server>, quantum: u64, inbox_cap: usize) -> Sched {
        assert!(!servers.is_empty(), "scheduler needs at least one shard");
        let durable = servers[0].wal_config().is_some();
        let mut inboxes = Vec::with_capacity(servers.len());
        let mut handles = Vec::with_capacity(servers.len());
        for (i, server) in servers.into_iter().enumerate() {
            let (tx, rx) = sync_channel(inbox_cap.max(1));
            inboxes.push(tx);
            let shard = Shard {
                server,
                quantum,
                inbox: rx,
                parked: BTreeMap::new(),
                rr: VecDeque::new(),
            };
            handles.push(
                thread::Builder::new()
                    .name(format!("parulel-shard-{i}"))
                    .spawn(move || shard.run())
                    .expect("spawn shard worker"),
            );
        }
        Sched {
            inboxes,
            handles,
            durable,
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.inboxes.len()
    }

    /// Routes one non-blank protocol line. Session frames hash to their
    /// shard; server-level `ping`/`metrics`/`sync` broadcast and merge
    /// (multi-shard only — one shard passes through untouched); all
    /// other sessionless frames run on shard 0. A full shard inbox
    /// refuses the frame with a `backpressure` error, mirroring the
    /// inject queue.
    pub fn submit(&self, line: &str, reply: Reply) -> Submitted {
        let frame = Json::parse(line.trim());
        let field = |key| {
            let value = frame.as_ref().ok().and_then(|f| f.get(key));
            value.and_then(Json::as_str).map(str::to_string)
        };
        let op = field("op");
        if op.as_deref() == Some("shutdown") {
            return Submitted::Shutdown(reply);
        }
        let session = field("session");
        let shard = match &session {
            Some(name) => shard_of(name, self.inboxes.len()),
            None => {
                let broadcastable =
                    matches!(op.as_deref(), Some("ping") | Some("metrics") | Some("sync"));
                if self.inboxes.len() > 1 && broadcastable {
                    if let Ok(frame) = &frame {
                        let merged = self.broadcast(frame);
                        reply(Some(merged.render()));
                        return Submitted::Dispatched;
                    }
                }
                0
            }
        };
        match self.inboxes[shard].try_send(Job::Line { frame, reply }) {
            Ok(()) => Submitted::Dispatched,
            Err(TrySendError::Full(Job::Line { reply, .. })) => {
                let failure = Failure::new(
                    kind::BACKPRESSURE,
                    format!("shard {shard} inbox full; retry after responses drain"),
                );
                reply(Some(
                    failure
                        .to_frame(op.as_deref(), session.as_deref())
                        .render(),
                ));
                Submitted::Dispatched
            }
            Err(TrySendError::Disconnected(Job::Line { reply, .. })) => {
                let failure = Failure::new(kind::PROTOCOL, "server is shutting down");
                reply(Some(
                    failure
                        .to_frame(op.as_deref(), session.as_deref())
                        .render(),
                ));
                Submitted::Dispatched
            }
            Err(_) => Submitted::Dispatched,
        }
    }

    /// Broadcasts a control frame to every shard through its inbox (so
    /// it orders after frames already queued there) and merges the
    /// responses deterministically.
    fn broadcast(&self, frame: &Json) -> Json {
        let mut receivers = Vec::with_capacity(self.inboxes.len());
        for tx in &self.inboxes {
            let (rtx, rrx) = sync_channel(1);
            // A blocking send keeps ordering simple; control frames are
            // rare and shards drain their inboxes promptly (runs park).
            if tx
                .send(Job::Control {
                    frame: frame.clone(),
                    reply: rtx,
                })
                .is_ok()
            {
                receivers.push(rrx);
            }
        }
        let responses: Vec<Json> = receivers.into_iter().filter_map(|r| r.recv().ok()).collect();
        merge_control(frame, responses)
    }

    /// Executes a daemon shutdown: every shard drains its parked runs
    /// (delivering their responses through their replies), persists when
    /// durable, and stops; workers are joined. Returns the merged
    /// shutdown response frame.
    pub fn shutdown(&mut self, frame: &Json) -> Json {
        let mut receivers = Vec::with_capacity(self.inboxes.len());
        for tx in &self.inboxes {
            let (rtx, rrx) = sync_channel(1);
            if tx
                .send(Job::Shutdown {
                    frame: frame.clone(),
                    reply: rtx,
                })
                .is_ok()
            {
                receivers.push(rrx);
            }
        }
        let responses: Vec<Json> = receivers.into_iter().filter_map(|r| r.recv().ok()).collect();
        let merged = merge_shutdown(responses, self.durable);
        self.join();
        merged
    }

    /// Joins every worker (after `shutdown`, or to tear down on
    /// transport error). Dropping the inboxes disconnects idle workers.
    pub fn join(&mut self) {
        self.inboxes.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Sums a numeric field across response frames.
fn sum_field(responses: &[Json], field: &str) -> u64 {
    responses
        .iter()
        .filter_map(|r| r.get(field).and_then(Json::as_f64))
        .map(|v| v as u64)
        .sum()
}

/// Max of a numeric field across response frames.
fn max_field(responses: &[Json], field: &str) -> u64 {
    responses
        .iter()
        .filter_map(|r| r.get(field).and_then(Json::as_f64))
        .map(|v| v as u64)
        .max()
        .unwrap_or(0)
}

/// Merges per-shard responses to a server-level control frame. With one
/// response (single worker) it passes through verbatim — the
/// golden-transcript guarantee. Counters sum, peaks take the max, and
/// the session list is the sorted union.
fn merge_control(request: &Json, mut responses: Vec<Json>) -> Json {
    if responses.len() == 1 {
        return responses.pop().expect("len checked");
    }
    if responses.is_empty() {
        return Failure::new(kind::PROTOCOL, "no shard answered").to_frame(None, None);
    }
    // Shards run identical configuration, so a failure (e.g. `sync`
    // with durability off) is identical everywhere: pass the first one
    // through.
    if responses[0].get("ok") != Some(&Json::Bool(true)) {
        return responses.swap_remove(0);
    }
    let op = request.get("op").and_then(|v| v.as_str()).unwrap_or("");
    match op {
        "ping" => {
            let mut merged = ok_frame("ping");
            if let Some(wal) = responses[0].get("wal").and_then(|v| v.as_str()) {
                merged = merged
                    .set("wal", wal)
                    .set("recovered_sessions", sum_field(&responses, "recovered_sessions"));
            }
            merged
        }
        "sync" => ok_frame("sync").set("synced", sum_field(&responses, "synced")),
        "metrics" => {
            let mut merged = ok_frame("metrics")
                .set("sessions", sum_field(&responses, "sessions"))
                .set("peak_sessions", max_field(&responses, "peak_sessions"))
                .set(
                    "max_sessions",
                    responses[0]
                        .get("max_sessions")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0) as u64,
                )
                .set("frames", sum_field(&responses, "frames"))
                .set("errors", sum_field(&responses, "errors"));
            if let Some(sync) = responses[0].get("wal_sync").and_then(|v| v.as_str()) {
                merged = merged
                    .set("wal_sync", sync)
                    .set("wal_records", sum_field(&responses, "wal_records"))
                    .set("wal_bytes", sum_field(&responses, "wal_bytes"))
                    .set("wal_snapshots", sum_field(&responses, "wal_snapshots"))
                    .set("recovered_sessions", sum_field(&responses, "recovered_sessions"));
            }
            let mut names: Vec<String> = responses
                .iter()
                .filter_map(|r| r.get("session_list").and_then(Json::as_arr))
                .flatten()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect();
            names.sort();
            let names: Vec<Json> = names.iter().map(|n| Json::from(n.as_str())).collect();
            merged.set("session_list", names)
        }
        _ => responses.swap_remove(0),
    }
}

/// Merges per-shard shutdown responses (single shard passes through).
fn merge_shutdown(mut responses: Vec<Json>, durable: bool) -> Json {
    if responses.len() == 1 {
        return responses.pop().expect("len checked");
    }
    let mut merged =
        ok_frame("shutdown").set("sessions_closed", sum_field(&responses, "sessions_closed"));
    if durable {
        merged = merged.set("persisted", sum_field(&responses, "persisted"));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use std::sync::mpsc::channel;

    #[test]
    fn shard_hash_is_stable_and_single_shard_collapses() {
        assert_eq!(shard_of("anything", 1), 0);
        assert_eq!(shard_of("", 1), 0);
        let a = shard_of("s1", 4);
        assert_eq!(shard_of("s1", 4), a, "hash must be deterministic");
        assert!(a < 4);
        // The documented FNV-1a constants: pin s0..s7 at 4 shards so an
        // accidental hash or reduction change (which would strand
        // recovered sessions on the wrong shard) fails loudly.
        let pinned: Vec<usize> = (0..8).map(|i| shard_of(&format!("s{i}"), 4)).collect();
        assert_eq!(pinned, [2, 1, 0, 3, 2, 1, 0, 3]);
        let spread: std::collections::BTreeSet<usize> =
            (0..64).map(|i| shard_of(&format!("s{i}"), 4)).collect();
        assert!(spread.len() > 1, "64 sessions must not all hash to one shard");
    }

    #[test]
    fn single_worker_frames_pass_through_verbatim() {
        let mut sched = Sched::start(vec![Server::new(ServerConfig::default())], 8, 64);
        let (tx, rx) = channel();
        let send = |sched: &Sched, line: &str| {
            let tx = tx.clone();
            sched.submit(line, Box::new(move |r| tx.send(r).unwrap()));
        };
        send(&sched, r#"{"op":"ping"}"#);
        assert_eq!(rx.recv().unwrap().unwrap(), r#"{"ok":true,"op":"ping"}"#);
        send(&sched, "not json");
        let parse_err = rx.recv().unwrap().unwrap();
        assert!(parse_err.contains("\"parse\""), "{parse_err}");
        let merged = sched.shutdown(&Json::obj().set("op", "shutdown"));
        assert_eq!(
            merged.render(),
            r#"{"ok":true,"op":"shutdown","sessions_closed":0}"#
        );
    }

    #[test]
    fn multi_shard_control_frames_merge() {
        let gauge = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let servers: Vec<Server> = (0..4)
            .map(|_| {
                let mut s = Server::new(ServerConfig::default());
                s.share_admission(gauge.clone(), flag.clone());
                s
            })
            .collect();
        let mut sched = Sched::start(servers, 8, 64);
        let (tx, rx) = channel();
        let program = "(literalize f x)(p r (f ^x 1) --> (make f ^x 2))";
        for name in ["a", "b", "c", "d", "e"] {
            let tx = tx.clone();
            let line = format!(
                r#"{{"op":"open","session":"{name}","program":"{program}"}}"#
            );
            sched.submit(&line, Box::new(move |r| tx.send(r).unwrap()));
        }
        for _ in 0..5 {
            let r = rx.recv().unwrap().unwrap();
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        let tx2 = tx.clone();
        sched.submit(
            r#"{"op":"metrics"}"#,
            Box::new(move |r| tx2.send(r).unwrap()),
        );
        let metrics = rx.recv().unwrap().unwrap();
        let parsed = Json::parse(&metrics).unwrap();
        assert_eq!(parsed.get("sessions").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            parsed
                .get("session_list")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(5)
        );
        assert_eq!(parsed.get("frames").and_then(Json::as_f64), Some(5.0));
        let merged = sched.shutdown(&Json::obj().set("op", "shutdown"));
        assert_eq!(
            merged.get("sessions_closed").and_then(Json::as_f64),
            Some(5.0)
        );
    }
}
