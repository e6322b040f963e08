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
//!   `--run-quantum` cycles, then parks while neighbor frames are
//!   served; parked runs advance round-robin, one quantum per turn.
//!   The server owns all of it: each session record holds its parked
//!   run's reply and the frames queued behind the run, and
//!   [`Server::submit`] / [`Server::advance`] decide when a session's
//!   frames execute. A shard worker is a plain loop over its inbox: it
//!   blocks on the inbox while no run is parked, and otherwise takes up
//!   to `JOBS_PER_TURN` jobs, then advances one run by one quantum.
//! * **One parse per frame** — [`Sched::submit`] parses each line once
//!   and the shard job carries the parsed frame (or its parse error).
//! * **Bounded inboxes** — each shard's inbox is a bounded channel; a
//!   full inbox refuses the frame with the same `backpressure` error
//!   kind the per-session inject queue uses. Two buffers are not
//!   bounded: a connection's unread input and unwritten responses in
//!   the dispatcher, and the frames queued behind a parked run.
//!
//! Server-level control frames (`ping`, `metrics`, `sync`) broadcast to
//! every shard *through the same inboxes* (so they order correctly
//! against session frames already queued) and merge deterministically;
//! with one worker they pass through a single server untouched, which
//! keeps the golden transcripts byte-for-byte. `shutdown` reaches every
//! shard the same way: each server first finishes its parked runs —
//! delivering their responses — then persists, so a shutdown mid-`run`
//! recovers with the same fingerprint as an uninterrupted run.

use crate::protocol::{kind, ok_frame, Failure};
use crate::server::{ParsedFrame, Reply, Server};
use parulel_engine::Json;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread;

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
    /// A server-level frame executed on every shard: a broadcast the
    /// dispatcher merges, or `shutdown`, after which the worker stops.
    Control {
        frame: Json,
        reply: SyncSender<Json>,
    },
}

/// One shard worker: serves `inbox` through `server` until a `shutdown`
/// frame, or until the inbox disconnects (daemon teardown) with no run
/// parked. No polling and no timeouts: with no run parked the worker
/// blocks on its inbox; otherwise it interleaves a bounded batch of jobs
/// (so a frame flood cannot starve the runs) with one quantum of the
/// next run.
fn shard(mut server: Server, quantum: u64, inbox: Receiver<Job>) {
    while !server.shutting_down() {
        if !server.has_parked_runs() {
            let Ok(job) = inbox.recv() else {
                return;
            };
            run_job(&mut server, job, quantum);
            continue;
        }
        for job in inbox.try_iter().take(JOBS_PER_TURN) {
            run_job(&mut server, job, quantum);
            if server.shutting_down() {
                return;
            }
        }
        server.advance(quantum);
    }
}

fn run_job(server: &mut Server, job: Job, quantum: u64) {
    match job {
        Job::Line { frame, reply } => server.submit(frame, reply, quantum),
        Job::Control { frame, reply } => {
            let _ = reply.send(server.handle_frame(&frame));
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
            handles.push(
                thread::Builder::new()
                    .name(format!("parulel-shard-{i}"))
                    .spawn(move || shard(server, quantum, rx))
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
                        let responses = self.on_every_shard(frame);
                        reply(merge_control(frame, responses).render());
                        return Submitted::Dispatched;
                    }
                }
                0
            }
        };
        let refusal = match self.inboxes[shard].try_send(Job::Line { frame, reply }) {
            Ok(()) => return Submitted::Dispatched,
            Err(TrySendError::Full(job)) => (
                job,
                Failure::new(
                    kind::BACKPRESSURE,
                    format!("shard {shard} inbox full; retry after responses drain"),
                ),
            ),
            Err(TrySendError::Disconnected(job)) => {
                (job, Failure::new(kind::PROTOCOL, "server is shutting down"))
            }
        };
        if let (Job::Line { reply, .. }, failure) = refusal {
            reply(failure.to_frame(op.as_deref(), session.as_deref()).render());
        }
        Submitted::Dispatched
    }

    /// Executes a server-level frame on every shard, through its inbox
    /// (so it orders after frames already queued there), and returns the
    /// shards' responses.
    fn on_every_shard(&self, frame: &Json) -> Vec<Json> {
        let mut receivers = Vec::with_capacity(self.inboxes.len());
        for tx in &self.inboxes {
            let (rtx, rrx) = sync_channel(1);
            // A blocking send keeps ordering simple; control frames are
            // rare and shards drain their inboxes promptly (runs park).
            let job = Job::Control {
                frame: frame.clone(),
                reply: rtx,
            };
            if tx.send(job).is_ok() {
                receivers.push(rrx);
            }
        }
        receivers
            .into_iter()
            .filter_map(|r| r.recv().ok())
            .collect()
    }

    /// Executes a daemon shutdown: every shard finishes its parked runs
    /// (delivering their responses through their replies), persists when
    /// durable, and stops; workers are joined. Returns the merged
    /// shutdown response frame.
    pub fn shutdown(&mut self, frame: &Json) -> Json {
        let merged = merge_shutdown(self.on_every_shard(frame), self.durable);
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
                merged = merged.set("wal", wal).set(
                    "recovered_sessions",
                    sum_field(&responses, "recovered_sessions"),
                );
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
                    .set(
                        "recovered_sessions",
                        sum_field(&responses, "recovered_sessions"),
                    );
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
        assert!(
            spread.len() > 1,
            "64 sessions must not all hash to one shard"
        );
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
        assert_eq!(rx.recv().unwrap(), r#"{"ok":true,"op":"ping"}"#);
        send(&sched, "not json");
        let parse_err = rx.recv().unwrap();
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
        let servers: Vec<Server> = (0..4)
            .map(|_| {
                let mut s = Server::new(ServerConfig::default());
                s.share_admission(gauge.clone());
                s
            })
            .collect();
        let mut sched = Sched::start(servers, 8, 64);
        let (tx, rx) = channel();
        let program = "(literalize f x)(p r (f ^x 1) --> (make f ^x 2))";
        for name in ["a", "b", "c", "d", "e"] {
            let tx = tx.clone();
            let line = format!(r#"{{"op":"open","session":"{name}","program":"{program}"}}"#);
            sched.submit(&line, Box::new(move |r| tx.send(r).unwrap()));
        }
        for _ in 0..5 {
            let r = rx.recv().unwrap();
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        let tx2 = tx.clone();
        sched.submit(
            r#"{"op":"metrics"}"#,
            Box::new(move |r| tx2.send(r).unwrap()),
        );
        let metrics = rx.recv().unwrap();
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
