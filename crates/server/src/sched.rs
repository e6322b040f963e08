//! The shard workers: shared-nothing servers behind bounded inboxes.
//!
//! * **Sharding** — sessions hash across N worker threads by FNV-1a of
//!   the session name ([`shard_of`]). Each worker owns a whole [`Server`]
//!   outright: no locks, no sharing, and every frame for one session
//!   runs on one thread in arrival order.
//! * **Step-quantum runs** — a `run` executes `--run-quantum` cycles,
//!   then parks while neighbor frames are served; [`Server::submit`] and
//!   [`Server::advance`] own that policy. A worker blocks on its inbox
//!   while no run is parked, and otherwise takes up to `JOBS_PER_TURN`
//!   jobs, then advances one run by one quantum.
//! * **Bounded inboxes** — putting a job on an inbox never blocks: a full
//!   inbox gives the job back, and [`crate::front::Front`] answers the
//!   frame with a `backpressure` error. Only jobs not yet taken count;
//!   the frames waiting behind a parked run are the server's.
//!
//! This module moves jobs and nothing else: routing, broadcasts and
//! their merge, refusals and the shutdown sequence are decided by
//! [`crate::front::Front`]. Every job, a broadcast's share and `shutdown`
//! included, answers through the [`Reply`] it carries. On `shutdown` a
//! server finishes its parked runs (their answers are delivered) and
//! persists, then the worker stops, so a shutdown mid-`run` recovers
//! with the same fingerprint as an uninterrupted run.

use crate::front::Work;
use crate::server::{Reply, Server};
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

/// One unit of work on a shard's inbox, and where its answer goes.
pub(crate) struct Job {
    pub(crate) work: Work,
    pub(crate) reply: Reply,
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
            job.work.run(&mut server, job.reply, quantum);
            continue;
        }
        for job in inbox.try_iter().take(JOBS_PER_TURN) {
            job.work.run(&mut server, job.reply, quantum);
            if server.shutting_down() {
                return;
            }
        }
        server.advance(quantum);
    }
}

/// The dispatcher-side handle: shard inboxes plus worker join handles.
pub struct Sched {
    inboxes: Vec<SyncSender<Job>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Sched {
    /// Spawns one worker thread per server; each worker owns its server
    /// outright (shared-nothing). `quantum` is the per-slice cycle
    /// budget for runs (0: one slice covering the whole run); `inbox_cap`
    /// bounds each shard's inbox.
    pub fn start(servers: Vec<Server>, quantum: u64, inbox_cap: usize) -> Sched {
        assert!(!servers.is_empty(), "scheduler needs at least one shard");
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
        Sched { inboxes, handles }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.inboxes.len()
    }

    /// Puts `job` on shard `shard`'s inbox without blocking. A refused
    /// job comes back, with `true` when the shard no longer takes jobs.
    pub(crate) fn try_send(&self, shard: usize, job: Job) -> Result<(), (Job, bool)> {
        self.inboxes[shard].try_send(job).map_err(|e| match e {
            TrySendError::Full(job) => (job, false),
            TrySendError::Disconnected(job) => (job, true),
        })
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
