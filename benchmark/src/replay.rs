//! In-process layer replays for the serve workloads.
//!
//! The exact frame scripts the TCP clients send are replayed, on the
//! harness thread, through three narrower paths: the protocol core alone
//! (`Server::handle_line`, WAL off or on), a bare `Engine` fed the same
//! deltas, and the durability layer alone (`SessionWal`, `wal::scan`,
//! `recover`). The differences between them attribute a frame's cost to
//! transport, protocol core, engine and WAL.

use crate::batch::Work;
use crate::gen::{self, Fact, Line, Verb};
use crate::json;
use crate::report::Tally;
use crate::trace::Recorder;
use parulel_core::WorkingMemory;
use parulel_engine::{Engine, EngineOptions, FiringPolicy};
use parulel_server::wal::{self, SessionWal, SnapshotRecord};
use parulel_server::{fingerprint_hex, recover, Server, ServerConfig, SyncPolicy, WalConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a session's engine is advanced after its injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advance {
    /// Inject every batch, then `run` to fixpoint (serve-churn,
    /// serve-contend).
    RunAtEnd,
    /// `step` once after every injected batch (serve-durable).
    StepEach,
}

/// What a bare-engine replay of one session ended with.
pub struct EngineSession {
    pub engine: Engine,
    pub work: Work,
}

/// Replays one session against a bare `Engine`, as the server's session
/// would drive it: compile the `open` program, inject each batch as one
/// delta, advance. With `layer_spans` the front-end layers are timed by
/// calling their public entry points once more (`parse`,
/// `compile_program`); reference computations leave that off.
pub fn engine_session(
    source: &str,
    batches: &[Vec<Fact>],
    advance: Advance,
    rec: &mut Recorder,
    op_id: u64,
    layer_spans: bool,
) -> Result<EngineSession, String> {
    let program = rec
        .span("lang.compile", op_id, |_| parulel_lang::compile(source))
        .map_err(|e| e.to_string())?;
    if layer_spans {
        rec.span("lang.parse", op_id, |_| {
            parulel_lang::parse(source).map(|ast| drop(black_box(ast)))
        })
        .map_err(|e| e.to_string())?;
        rec.span("vm.codegen", op_id, |_| {
            drop(black_box(parulel_vm::compile_program(&program)))
        });
    }
    let mut engine = rec.span("engine.build", op_id, |_| {
        Engine::with_policy(
            &program,
            WorkingMemory::new(&program.classes),
            FiringPolicy::fire_all(),
            EngineOptions {
                collect_log: false,
                ..EngineOptions::default()
            },
        )
    });
    for batch in batches {
        let delta = gen::delta_of(batch, engine.program());
        rec.span("engine.inject", op_id, |_| drop(engine.inject(&delta)));
        if advance == Advance::StepEach {
            rec.span("engine.step", op_id, |_| engine.step())
                .map_err(|e| e.to_string())?;
        }
    }
    if advance == Advance::RunAtEnd {
        let outcome = rec
            .span("engine.run", op_id, |_| engine.run())
            .map_err(|e| e.to_string())?;
        if !outcome.quiescent {
            return Err(format!("reference run ended {}", outcome.status()));
        }
    }
    let work = Work {
        cycles: engine.stats().cycles,
        firings: engine.stats().firings,
    };
    Ok(EngineSession { engine, work })
}

/// The single-`Engine` reference fingerprint of one session.
pub fn reference_fingerprint(
    source: &str,
    batches: &[Vec<Fact>],
    advance: Advance,
) -> Result<String, String> {
    let session = engine_session(source, batches, advance, &mut Recorder::off(), 0, false)?;
    Ok(fingerprint_hex(session.engine.wm()))
}

/// A server sized for the scripts (the daemon's other settings are
/// `ServerConfig::default()`, as the CLI leaves them).
pub fn server_config(max_sessions: usize) -> ServerConfig {
    ServerConfig {
        max_sessions,
        ..ServerConfig::default()
    }
}

/// What a replay through the protocol core measured.
pub struct CoreReplay {
    /// Time inside `handle_line`, summed.
    pub wall: Duration,
    /// Per-frame time in microseconds, in script order.
    pub frame_us: Vec<f64>,
}

impl CoreReplay {
    pub fn frames(&self) -> u64 {
        self.frame_us.len() as u64
    }

    pub fn us_per_frame(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.frame_us.len().max(1) as f64
    }
}

/// Feeds `lines` through `Server::handle_line`, one `server.*` span per
/// frame.
pub fn server_core(
    server: &mut Server,
    lines: &[Line],
    rec: &mut Recorder,
    tally: &mut Tally,
) -> CoreReplay {
    let mut out = CoreReplay {
        wall: Duration::ZERO,
        frame_us: Vec::with_capacity(lines.len()),
    };
    for line in lines {
        let started = Instant::now();
        let response = rec.span(line.verb.server_span(), 0, |_| {
            server.handle_line(&line.text)
        });
        let took = started.elapsed();
        out.wall += took;
        out.frame_us.push(took.as_secs_f64() * 1e6);
        let response = response.unwrap_or_default();
        if !json::response_ok(&response) {
            let reply: String = response.chars().take(160).collect();
            tally.violation(format!("in-process {:?} refused: {reply}", line.verb));
        }
    }
    out
}

/// Drives `SessionWal` directly with one session's mutating lines, a
/// `wal.*` span around each call: `append_frame` under
/// `SyncPolicy::Never` (so the append is timed without its fsync), then
/// `sync`, and a `compact` with the session's real snapshot bytes
/// whenever `snapshot_every` records have piled up.
pub fn wal_layer(
    dir: &Path,
    session: &str,
    lines: &[Line],
    snapshot: &[u8],
    snapshot_every: u64,
    rec: &mut Recorder,
) -> std::io::Result<()> {
    let config = WalConfig::new(dir, SyncPolicy::Never);
    let open_line = &lines.first().expect("a session starts with open").text;
    let mut log = SessionWal::create(&config, session, open_line)?;
    for line in lines
        .iter()
        .filter(|l| !matches!(l.verb, Verb::Query | Verb::Metrics | Verb::Ping))
    {
        rec.span("wal.append", 0, |_| log.append_frame(&line.text))?;
        rec.span("wal.fsync", 0, |_| log.sync())?;
        if log.records_since_snapshot >= snapshot_every {
            let record = SnapshotRecord {
                open_line: open_line.clone(),
                snapshot: snapshot.to_vec(),
                injected_adds: 0,
                injected_removes: 0,
                pending: Vec::new(),
                reloads: Vec::new(),
            };
            rec.span("wal.compact", 0, |_| log.compact(&record))?;
        }
    }
    log.delete()
}

/// What replaying recovery in-process measured.
pub struct RecoveryReplay {
    pub scan: Duration,
    pub recover: Duration,
    pub sessions: u64,
    pub frames_replayed: u64,
}

/// Scans every log under `config.dir` with `wal::scan`, then recovers
/// the directory into a fresh `Server` with `recover`.
pub fn recovery_layer(
    config: &WalConfig,
    max_sessions: usize,
    tally: &mut Tally,
) -> RecoveryReplay {
    let mut files: Vec<_> = std::fs::read_dir(&config.dir)
        .map(|entries| entries.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    let started = Instant::now();
    for path in files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
    {
        match wal::scan(path, &config.faults) {
            Ok(result) => drop(black_box(result)),
            Err(e) => tally.violation(format!("wal::scan {}: {e:?}", path.display())),
        }
    }
    let scan = started.elapsed();
    let mut server = Server::with_wal(server_config(max_sessions), config.clone());
    let started = Instant::now();
    let report = recover(&mut server, config);
    let recover_time = started.elapsed();
    if report.sessions_skipped > 0 || report.torn_records > 0 {
        tally.violation(format!("in-process recovery: {}", report.summary()));
    }
    RecoveryReplay {
        scan,
        recover: recover_time,
        sessions: report.sessions_recovered as u64,
        frames_replayed: report.frames_replayed,
    }
}
