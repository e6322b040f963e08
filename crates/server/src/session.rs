//! One served session: the one record the server keeps per session.
//!
//! A session owns a long-lived [`Engine`], its bounded inject queue and
//! lifetime counters, its write-ahead log handle when the daemon is
//! durable, and its `run` while one is in progress between slices.
//!
//! A session is the unit of isolation. Each owns a private engine
//! (program, working memory, matcher, refraction, budgets, trace ring) —
//! sessions share nothing, so one session's budget trip, RHS failure, or
//! panic cannot corrupt another. Injected deltas are *queued*, not
//! applied: the queue is bounded (backpressure is an explicit protocol
//! error, not unbounded buffering), and it drains — in FIFO order,
//! through the kernel's incremental [`Engine::inject`] path — at the next
//! `step` or `run`, which is the only point the engine advances anyway.

use crate::protocol::{self, Failure};
use crate::wal::{SessionWal, SnapshotRecord};
use parulel_core::Delta;
use parulel_engine::{Engine, EngineError};
use std::collections::VecDeque;

/// A served session. See the [module docs](self).
pub struct Session {
    /// The session's private engine.
    pub engine: Engine,
    /// Queued, not-yet-applied injects (FIFO).
    queue: VecDeque<Delta>,
    /// Sum of `len()` over queued deltas (the backpressure meter).
    depth: usize,
    /// Queue capacity in WME changes; `inject` frames that would exceed
    /// it are refused whole.
    cap: usize,
    /// Lifetime WMEs asserted through `inject` (after draining).
    pub injected_adds: u64,
    /// Lifetime WMEs retracted through `inject` (after draining).
    pub injected_removes: u64,
    /// Rendered inject frames mirroring the queue, cleared on drain.
    /// Only maintained when durability is on: a WAL compaction record
    /// carries them so queued-but-undrained injects survive log
    /// truncation.
    pending_lines: Vec<String>,
    /// Rendered `reload` frames accepted over the session's lifetime, in
    /// order. Only maintained when durability is on: an engine snapshot
    /// captures *state* but not the program, so a compaction record
    /// replays `open`, then these, then the snapshot restore — keeping
    /// the interning order (and thus every symbol id live WMEs refer to)
    /// identical to the original run.
    reload_lines: Vec<String>,
    /// The session's write-ahead log; `None` when durability is off, and
    /// while recovery replays the log.
    pub(crate) wal: Option<SessionWal>,
    /// The `run` in progress; its cycle count, cap and start instant
    /// live in the engine ([`Engine::run_slice`]).
    pub(crate) run: Option<ActiveRun>,
}

/// A `run`/`run-to-fixpoint` admitted on a session and not yet ended.
pub(crate) struct ActiveRun {
    /// The request's verb, echoed in error frames.
    pub(crate) op: String,
    /// Injects drained when the run was admitted.
    pub(crate) drained: usize,
}

impl Session {
    /// Wraps a freshly built engine with an empty queue of capacity
    /// `cap` changes, logging to `wal` when durability is on.
    pub fn new(engine: Engine, cap: usize, wal: Option<SessionWal>) -> Session {
        Session {
            engine,
            queue: VecDeque::new(),
            depth: 0,
            cap,
            injected_adds: 0,
            injected_removes: 0,
            pending_lines: Vec::new(),
            reload_lines: Vec::new(),
            wal,
            run: None,
        }
    }

    /// Pending change count (the queue's backpressure meter).
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    /// Enqueues one inject delta, refusing the whole frame if it would
    /// overflow the bounded queue. Returns the number of changes queued.
    pub fn enqueue(&mut self, delta: Delta) -> Result<usize, Failure> {
        let n = delta.len();
        if self.depth + n > self.cap {
            return Err(Failure::new(
                protocol::kind::BACKPRESSURE,
                format!(
                    "inject queue full: {} queued + {} new > cap {} (drain with step/run)",
                    self.depth, n, self.cap
                ),
            ));
        }
        self.depth += n;
        self.queue.push_back(delta);
        Ok(n)
    }

    /// Records the rendered inject frame backing the most recent
    /// [`Session::enqueue`] (durability bookkeeping for compaction).
    pub fn note_pending(&mut self, line: String) {
        self.pending_lines.push(line);
    }

    /// Records an accepted `reload` frame (durability bookkeeping for
    /// compaction).
    pub fn note_reload(&mut self, line: String) {
        self.reload_lines.push(line);
    }

    /// Compacts the session's log, if it has one, to `header + snapshot
    /// record` of the session as it stands. Returns whether a log was
    /// compacted.
    pub(crate) fn compact(&mut self) -> std::io::Result<bool> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(false);
        };
        let record = SnapshotRecord {
            open_line: wal.open_line.clone(),
            snapshot: self.engine.checkpoint().to_bytes(),
            injected_adds: self.injected_adds,
            injected_removes: self.injected_removes,
            pending: self.pending_lines.clone(),
            reloads: self.reload_lines.clone(),
        };
        wal.compact(&record)?;
        Ok(true)
    }

    /// Applies every queued delta through the kernel's incremental
    /// inject path, FIFO. Returns the number of changes drained.
    pub fn drain(&mut self) -> usize {
        let drained = self.depth;
        while let Some(delta) = self.queue.pop_front() {
            let (removed, added) = self.engine.inject(&delta);
            self.injected_adds += added.len() as u64;
            self.injected_removes += removed.len() as u64;
        }
        self.depth = 0;
        self.pending_lines.clear();
        drained
    }

    /// The session's working-memory fingerprint (see
    /// [`protocol::fingerprint_hex`]).
    pub fn fingerprint(&self) -> String {
        protocol::fingerprint_hex(self.engine.wm())
    }
}

/// Maps an [`EngineError`] onto the structured `engine` failure frame
/// that kills this session (and only this session).
pub fn engine_failure(err: &EngineError) -> Failure {
    let mut failure = Failure::new(protocol::kind::ENGINE, err.to_string());
    failure.engine = Some((err.kind(), err.cycle().unwrap_or(0)));
    failure.closed = true;
    failure
}
