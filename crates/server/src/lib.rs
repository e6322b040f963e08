//! # parulel-server
//!
//! The rule-serving daemon behind `parulel serve`: many independent
//! engine **sessions** multiplexed over a line-delimited JSON protocol.
//!
//! The ROADMAP's north star is a rule engine that serves streams of
//! facts, not one-shot batch runs — the shape PARULEL's incremental
//! match and the kernel's `inject` path were built for. This crate adds
//! the serving layer:
//!
//! * [`protocol`] — the frame format: request/response shapes, stable
//!   error kinds, snapshot hex transport, WM fingerprints.
//! * [`session`] — one served session, the one record the server keeps
//!   per session: a private [`parulel_engine::Engine`], a *bounded*
//!   inject queue (backpressure is an explicit error frame, not
//!   unbounded buffering), its write-ahead log handle, and its run while
//!   one is parked between slices.
//! * [`server`] — the synchronous core: one session map, admission control
//!   (`max_sessions`), per-session budgets mapped onto the kernel's
//!   `EngineError` machinery, and graceful degradation — a budget trip,
//!   RHS failure, or panic kills one session with a structured error
//!   frame, never the daemon.
//! * [`sched`] — the sharded session scheduler: sessions hash across N
//!   shared-nothing worker threads, each owning a whole [`Server`]; long
//!   `run` frames execute in cooperative step-quantum slices so neighbor
//!   sessions never wait behind a closure.
//! * [`dispatch`] — the readiness-driven event loop (`poll(2)` + a
//!   self-pipe): one dispatcher thread parses frames off every
//!   connection, routes them to shard inboxes, and writes responses
//!   back in per-connection request order.
//! * [`transport`] — the stdin/stdout line pump over one owned
//!   [`Server`], plus the SIGTERM/SIGINT handlers the dispatcher uses
//!   for graceful shutdown.
//! * [`wal`] — the durability layer: a per-session write-ahead log of
//!   accepted mutating frames (length-prefixed, CRC-checksummed,
//!   log-before-apply) with configurable fsync policy and atomic
//!   snapshot compaction.
//! * [`recovery`] — daemon-start recovery: scan the WAL directory, load
//!   each session's latest snapshot, replay the frame tail through the
//!   same deterministic core, truncate torn trailing records.
//!
//! ## Protocol verbs
//!
//! `open` (program + policy + matcher + budgets), `inject` (batched WME
//! deltas), `step`, `run`/`run-to-fixpoint`, `query` (per-class WM
//! scan), `snapshot`/`restore` (the engine's snapshot bytes, hex
//! encoded), `metrics` (per-session counters, optionally the full
//! parulel-metrics/v1 report; without a session, server totals),
//! `trace` (the session's structured event ring as JSONL), `close`,
//! `ping`, `shutdown`. See `DESIGN.md` for the full frame reference.

#![warn(missing_docs)]

pub mod dispatch;
pub mod protocol;
pub mod recovery;
pub mod sched;
pub mod server;
pub mod session;
pub mod transport;
pub mod wal;

pub use dispatch::{serve_sched_unix, spawn_sched_tcp};
pub use protocol::{fingerprint_hex, wm_fingerprint, Failure};
pub use recovery::{recover, recover_shard, RecoveryReport};
pub use sched::{shard_of, Sched};
pub use server::{Server, ServerConfig};
pub use session::Session;
pub use transport::{serve_lines, serve_stdio};
pub use wal::{SyncPolicy, WalConfig};
