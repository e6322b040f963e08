//! The serve workloads: `serve-churn`, `serve-durable`, `serve-contend`.
//!
//! Each drives a freshly spawned daemon over TCP from at most two
//! closed-loop client threads (the reference host has two cores), checks
//! every response, and compares every session's fingerprint with a
//! single-`Engine` reference computed in-process.

use crate::batch::Work;
use crate::daemon::{boot, Client, Daemon};
use crate::gen::{self, Fact, Line, OrderStream, SessionScript, Verb};
use crate::json;
use crate::proc;
use crate::replay::{self, Advance};
use crate::report::{RunReport, Tally};
use crate::sizes::Sizes;
use crate::stats::{self, Op};
use crate::trace::Recorder;
use parulel_server::{Server, SyncPolicy, WalConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Client threads and connections: one per core of the reference host.
pub const CLIENTS: usize = 2;

/// Where a serve workload finds the daemon and may write.
pub struct Env<'a> {
    pub daemon_bin: &'a Path,
    pub out_dir: &'a Path,
    pub sizes: &'a Sizes,
}

/// How long a client keeps going.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Instant),
    Count(usize),
}

impl Until {
    fn more(self, done: usize) -> bool {
        match self {
            Until::Deadline(at) => Instant::now() < at,
            Until::Count(n) => done < n,
        }
    }
}

fn flags(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn load(clients: usize, what: &str) -> String {
    format!(
        "closed loop, {clients} client thread(s), one TCP connection each, next frame sent on reply; {what}; daemon RAYON_NUM_THREADS={}",
        std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())
    )
}

/// Repeats `set_up` `reps` times, keeping the last state (the previous
/// one is dropped, daemon and all, before the next boots).
fn timed_set_up<S>(
    reps: usize,
    mut set_up: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(set_up()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.expect("reps >= 1"), times))
}

/// The set-ups repeated after the timed window, so that `setup_s` is a
/// median of samples taken seconds apart and one disturbed stretch of
/// the host cannot hold them all. The states are discarded.
fn late_set_ups<S>(
    reps: usize,
    times: &mut Vec<f64>,
    tally: &mut Tally,
    mut set_up: impl FnMut() -> Result<S, String>,
) {
    for _ in 0..reps {
        let started = Instant::now();
        match set_up() {
            Ok(state) => {
                times.push(started.elapsed().as_secs_f64());
                drop(state);
            }
            Err(e) => tally.violation(format!("set-up after the window: {e}")),
        }
    }
}

/// Daemon-side accounting read while the daemon is still alive.
struct DaemonUsage {
    peak_rss_mib: f64,
    cpu_s: f64,
}

fn usage(daemon: &Daemon) -> DaemonUsage {
    DaemonUsage {
        peak_rss_mib: proc::peak_rss_mib(Some(daemon.pid())).unwrap_or(f64::NAN),
        cpu_s: proc::cpu_seconds(Some(daemon.pid())).unwrap_or(f64::NAN),
    }
}

/// CPU time the daemon and the harness spend between `start` and `stop`.
struct CpuMeter {
    daemon_s: f64,
    harness_s: f64,
}

impl CpuMeter {
    fn start(daemon: &Daemon) -> CpuMeter {
        CpuMeter {
            daemon_s: usage(daemon).cpu_s,
            harness_s: proc::cpu_seconds(None).unwrap_or(f64::NAN),
        }
    }

    /// The CPU seconds spent since `start`, and the daemon's usage now.
    fn stop(self, daemon: &Daemon) -> (CpuMeter, DaemonUsage) {
        let now = usage(daemon);
        let spent = CpuMeter {
            daemon_s: now.cpu_s - self.daemon_s,
            harness_s: proc::cpu_seconds(None).unwrap_or(f64::NAN) - self.harness_s,
        };
        (spent, now)
    }
}

/// Frames recorded by a set of clients and the bytes they moved.
struct Traffic {
    frames: u64,
    req_bytes: u64,
    resp_bytes: u64,
}

fn traffic<'a>(clients: impl IntoIterator<Item = &'a Client>) -> Traffic {
    clients.into_iter().fold(
        Traffic {
            frames: 0,
            req_bytes: 0,
            resp_bytes: 0,
        },
        |t, c| Traffic {
            frames: t.frames + c.ops.len() as u64,
            req_bytes: t.req_bytes + c.req_bytes,
            resp_bytes: t.resp_bytes + c.resp_bytes,
        },
    )
}

/// The per-frame byte counts and the `proc.*` metrics of a traced run's
/// untraced TCP pass.
fn set_traffic_and_cpu(report: &mut RunReport, traffic: &Traffic, spent: &CpuMeter) {
    let frames = traffic.frames.max(1) as f64;
    report.set(
        "server.req_bytes_per_frame",
        traffic.req_bytes as f64 / frames,
        traffic.frames,
    );
    report.set(
        "server.resp_bytes_per_frame",
        traffic.resp_bytes as f64 / frames,
        traffic.frames,
    );
    report.set("proc.daemon_cpu_s", spent.daemon_s, 1);
    report.set(
        "proc.cpu_us_per_frame",
        spent.daemon_s * 1e6 / frames,
        traffic.frames,
    );
    report.set("proc.harness_cpu_s", spent.harness_s, 1);
}

/// The wall time of the slowest client of a drive.
fn longest<T>(driven: &[(Duration, T)]) -> f64 {
    driven
        .iter()
        .map(|(wall, _)| wall.as_secs_f64())
        .fold(0.0, f64::max)
}

/// One client's recorded operations and how many make a round.
struct ClientOps<'a> {
    ops: &'a [Op],
    per_round: usize,
}

/// The two timing metrics and the per-round values behind them.
struct Steady {
    /// Every round's median operation time, all clients pooled.
    round_ms: Vec<f64>,
    /// Every round's rate, client by client.
    round_rates: Vec<Vec<f64>>,
}

impl Steady {
    /// Rounds of equal work cut from each client's operations.
    fn of(clients: &[ClientOps]) -> Steady {
        let rounds: Vec<Vec<stats::Round>> = clients
            .iter()
            .map(|c| stats::rounds(c.ops, c.per_round))
            .collect();
        Steady {
            round_ms: rounds.iter().flatten().map(|r| r.median_ms).collect(),
            round_rates: rounds
                .iter()
                .map(|client| client.iter().map(|r| r.units_per_s).collect())
                .collect(),
        }
    }

    /// The quiet quartile across every client's rounds of the round's
    /// median operation time.
    fn op_ms(&self) -> f64 {
        stats::quiet_quartile(&self.round_ms, true).unwrap_or(f64::NAN)
    }

    /// The clients' quiet-quartile rates added up: they run at once.
    fn ops_per_s(&self) -> f64 {
        self.round_rates
            .iter()
            .map(|rates| stats::quiet_quartile(rates, false).unwrap_or(f64::NAN))
            .sum()
    }
}

/// The end-to-end metrics every serve workload reports the same way,
/// plus the plain whole-window statistics as diagnostics.
fn set_end_to_end(
    report: &mut RunReport,
    setup_times: &[f64],
    steady: Steady,
    all_op_ms: &[f64],
    peak_rss_mib: f64,
) {
    report.set(
        "setup_s",
        stats::median(setup_times).unwrap_or(f64::NAN),
        setup_times.len() as u64,
    );
    report.set("op_ms_p50", steady.op_ms(), steady.round_ms.len() as u64);
    report.set(
        "ops_per_s",
        steady.ops_per_s(),
        steady.round_rates.iter().map(Vec::len).sum::<usize>() as u64,
    );
    report.set("peak_rss_mib", peak_rss_mib, 1);
    report.set_extra(
        "op_ms_p50_whole_window",
        stats::median(all_op_ms).unwrap_or(f64::NAN),
        "ms",
        all_op_ms.len() as u64,
    );
    report.set_tail_diagnostics(all_op_ms);
    report.series.insert("round_op_ms", steady.round_ms);
    report.series.insert(
        "round_ops_per_s",
        steady.round_rates.into_iter().flatten().collect(),
    );
}

fn fail_report(mut report: RunReport, error: String) -> RunReport {
    report.tally.fail(error);
    if report.trace {
        report.zero_fill_per_layer();
    }
    report
}

/// Sets `server.<verb>_us` from a recorder's `server.*` spans.
fn set_verb_spans(report: &mut RunReport, rec: &Recorder) {
    for (metric, verb) in [
        ("server.open_us", Verb::Open),
        ("server.inject_us", Verb::Inject),
        ("server.run_us", Verb::Run),
        ("server.step_us", Verb::Step),
        ("server.query_us", Verb::Query),
        ("server.close_us", Verb::Close),
    ] {
        let (count, median_us) = rec.median_us(verb.server_span());
        report.set(metric, median_us, count);
    }
}

/// Sets the front-end and engine span metrics from a bare-engine replay.
/// `engine.run_us` is whichever way the workload advances its engine:
/// `run` to fixpoint, or one `step` per inject.
fn set_engine_spans(report: &mut RunReport, rec: &Recorder) {
    let advance = if rec.median_us("engine.run").0 > 0 {
        "engine.run"
    } else {
        "engine.step"
    };
    for (metric, span) in [
        ("lang.parse_us", "lang.parse"),
        ("lang.compile_us", "lang.compile"),
        ("vm.codegen_us", "vm.codegen"),
        ("engine.build_us", "engine.build"),
        ("engine.inject_us", "engine.inject"),
        ("engine.run_us", advance),
    ] {
        let (count, median_us) = rec.median_us(span);
        report.set(metric, median_us, count);
    }
}

/// Time spent inside the engine proper (build, inject, advance) in a
/// bare-engine replay.
fn engine_time(rec: &Recorder) -> Duration {
    let totals = rec.totals();
    let ns: u64 = ["engine.build", "engine.inject", "engine.run", "engine.step"]
        .iter()
        .filter_map(|name| totals.get(name))
        .map(|t| t.total_ns)
        .sum();
    Duration::from_nanos(ns)
}

fn set_frame_stats(report: &mut RunReport, frame_ms: &[f64], frames_per_s: f64) {
    let n = frame_ms.len() as u64;
    report.set(
        "server.frame_ms_p50",
        stats::median(frame_ms).unwrap_or(0.0),
        n,
    );
    report.set(
        "server.frame_ms_p99",
        stats::percentile(frame_ms, 0.99).unwrap_or(0.0),
        n,
    );
    report.set("server.frames_per_s", frames_per_s, n);
}

fn write_trace(rec: &Recorder, env: &Env, workload: &str, tally: &mut Tally) {
    if let Err(e) = rec.write_jsonl(&env.out_dir.join(format!("{workload}.trace.jsonl"))) {
        tally.violation(format!("writing the trace: {e}"));
    }
}

/// Folds the clients' tallies and spans into the run's.
fn merge_clients(clients: Vec<Client>, tally: &mut Tally, rec: &mut Recorder) {
    for client in clients {
        tally.absorb(client.tally);
        rec.absorb(client.rec);
    }
}

fn all_latencies_ms(clients: &[Client]) -> Vec<f64> {
    clients.iter().flat_map(Client::latencies_ms).collect()
}

// --- serve-churn ---------------------------------------------------------

struct Churn {
    pool: Vec<SessionScript>,
    /// Reference fingerprint per pool script.
    expected: Vec<String>,
    daemon: Daemon,
    clients: Vec<Client>,
}

/// Client `c`'s `k`-th session runs this pool script: the two clients
/// walk the even and the odd scripts, so both see all three programs.
fn churn_script(pool_len: usize, c: usize, k: usize) -> usize {
    (CLIENTS * k + c) % pool_len
}

/// One short session: `open`, inject batches, `run` (fingerprint
/// checked), `query`, `close`.
fn churn_session(
    client: &mut Client,
    script: &SessionScript,
    expected: &str,
    c: usize,
    k: usize,
) -> Work {
    let name = format!("c{c}-{k}");
    let op_id = ((c as u64) << 32) | k as u64;
    let mut work = Work::default();
    client.rec.enter("session", op_id);
    for Line { verb, text } in script.lines(&name) {
        if !client.frame(verb.frame_span(), op_id, &text) || verb != Verb::Run {
            continue;
        }
        let reply = client.wire.last();
        work = Work {
            cycles: json::response_num(reply, "cycles").unwrap_or(0.0) as u64,
            firings: json::response_num(reply, "firings").unwrap_or(0.0) as u64,
        };
        let status = json::response_str(reply, "status") == Some("quiescent");
        if !status || json::response_str(reply, "fingerprint") != Some(expected) {
            let note = format!(
                "{name} ({}) reached a state other than the reference",
                script.kind
            );
            client.tally.violation(note);
        }
    }
    client.rec.exit();
    work
}

/// Runs client sessions `first..` on every client in parallel until
/// `until` says stop. Returns each client's wall time and per-session
/// work.
fn churn_drive(state: &mut Churn, first: usize, until: Until) -> Vec<(Duration, Vec<Work>)> {
    let (pool, expected) = (&state.pool, &state.expected);
    std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut done = Vec::new();
                    while until.more(done.len()) {
                        let script = churn_script(pool.len(), c, first + done.len());
                        done.push(churn_session(
                            client,
                            &pool[script],
                            &expected[script],
                            c,
                            first + done.len(),
                        ));
                    }
                    (started.elapsed(), done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn churn_set_up(env: &Env, seed: u64) -> Result<Churn, String> {
    let pool = gen::churn_pool(seed, env.sizes.churn_pool);
    let expected = pool
        .iter()
        .map(|s| replay::reference_fingerprint(&s.source, &s.batches, Advance::RunAtEnd))
        .collect::<Result<Vec<_>, _>>()?;
    let (daemon, _) = boot(env.daemon_bin, &flags(&["--workers", "2"]))?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(daemon.addr, Recorder::off()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut state = Churn {
        pool,
        expected,
        daemon,
        clients,
    };
    for client in &mut state.clients {
        client.recording = false;
    }
    churn_drive(&mut state, 0, Until::Count(env.sizes.churn_warmup));
    for client in &mut state.clients {
        client.recording = true;
    }
    Ok(state)
}

/// Cycles and firings of the counted prefix: the first `churn_counted`
/// timed sessions of every client.
fn churn_counted(driven: &[(Duration, Vec<Work>)], sizes: &Sizes) -> Option<Work> {
    driven
        .iter()
        .map(|(_, sessions)| Some(sessions.get(..sizes.churn_counted)?.iter().copied().sum()))
        .sum()
}

const CHURN_LOAD: &str = "short sessions cycling labelprop(48,96)/seating(4,8)/market(24,6); daemon --workers 2, WAL off";

/// Frames in one pass over client `c`'s scripts: a round of that many
/// frames always holds the same sessions, whichever script it starts at.
fn churn_round_len(pool: &[SessionScript], c: usize) -> usize {
    (c..pool.len())
        .step_by(CLIENTS)
        .map(|i| pool[i].batches.len() + 4)
        .sum()
}

pub fn churn(env: &Env, seed: u64, seconds: f64) -> RunReport {
    let mut report = RunReport::new(
        "serve-churn",
        seed,
        seconds,
        false,
        load(CLIENTS, CHURN_LOAD),
    );
    let sizes = env.sizes;
    let (mut state, mut setup_times) =
        match timed_set_up(sizes.setup_reps, || churn_set_up(env, seed)) {
            Ok(ok) => ok,
            Err(e) => return fail_report(report, e),
        };
    let mut tally = Tally::default();
    let meter = CpuMeter::start(&state.daemon);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let driven = churn_drive(&mut state, sizes.churn_warmup, Until::Deadline(deadline));
    let (spent, daemon_now) = meter.stop(&state.daemon);

    let Churn {
        clients,
        daemon,
        pool,
        ..
    } = state;
    drop(daemon);
    let per_client: Vec<ClientOps> = clients
        .iter()
        .enumerate()
        .map(|(c, client)| ClientOps {
            ops: &client.ops,
            per_round: churn_round_len(&pool, c),
        })
        .collect();
    let measured = Steady::of(&per_client);
    let latencies = all_latencies_ms(&clients);
    let sessions: usize = driven.iter().map(|(_, s)| s.len()).sum();
    let wall = longest(&driven).max(1e-9);
    late_set_ups(sizes.setup_reps_late, &mut setup_times, &mut tally, || {
        churn_set_up(env, seed)
    });

    set_end_to_end(
        &mut report,
        &setup_times,
        measured,
        &latencies,
        daemon_now.peak_rss_mib,
    );
    let frames = latencies.len() as u64;
    report.set_extra(
        "frames_per_s_whole_window",
        frames as f64 / wall,
        "1/s",
        frames,
    );
    report.set_extra(
        "sessions_per_s",
        sessions as f64 / wall,
        "1/s",
        sessions as u64,
    );
    report.set_extra("daemon_cpu_s", spent.daemon_s, "s", 1);
    report.set_extra("harness_cpu_s", spent.harness_s, "s", 1);
    match churn_counted(&driven, sizes) {
        Some(work) => report.count_work(work),
        None => tally.violation("window ended before the counted prefix completed"),
    }
    merge_clients(clients, &mut tally, &mut Recorder::off());
    report.tally = tally;
    report
}

/// The counted prefix: the pool script and the lines of every session
/// it sends, client by client.
fn churn_counted_lines(state: &Churn, sizes: &Sizes) -> Vec<(usize, Vec<Line>)> {
    let mut out = Vec::new();
    for c in 0..CLIENTS {
        for k in sizes.churn_warmup..sizes.churn_warmup + sizes.churn_counted {
            let script = churn_script(state.pool.len(), c, k);
            out.push((script, state.pool[script].lines(&format!("c{c}-{k}"))));
        }
    }
    out
}

pub fn churn_traced(env: &Env, seed: u64, seconds: f64) -> RunReport {
    let mut report = RunReport::new(
        "serve-churn",
        seed,
        seconds,
        true,
        load(CLIENTS, CHURN_LOAD),
    );
    let mut state = match churn_set_up(env, seed) {
        Ok(state) => state,
        Err(e) => return fail_report(report, e),
    };
    let mut tally = Tally::default();
    let sizes = env.sizes;
    let first = sizes.churn_warmup;

    // Pass 1 over TCP, untraced: the baseline the traced pass and the
    // in-process replays are compared with.
    let meter = CpuMeter::start(&state.daemon);
    let plain = churn_drive(&mut state, first, Until::Count(sizes.churn_counted));
    let (spent, _) = meter.stop(&state.daemon);
    let plain_wall = longest(&plain).max(1e-9);
    let plain_latencies = all_latencies_ms(&state.clients);
    let plain_traffic = traffic(&state.clients);

    // Pass 2 over TCP, traced: the same scripts (the pool wraps), spans
    // around every frame.
    let origin = Instant::now();
    for client in &mut state.clients {
        client.rec = Recorder::new(origin);
    }
    let traced = churn_drive(
        &mut state,
        first + sizes.churn_pool,
        Until::Count(sizes.churn_counted),
    );
    if churn_counted(&plain, sizes) != churn_counted(&traced, sizes) {
        tally.violation("traced and untraced passes disagree on cycles/firings");
    }

    // In-process: the protocol core alone, then a bare engine.
    let lines = churn_counted_lines(&state, sizes);
    let mut rec = Recorder::new(origin);
    let mut server = Server::new(replay::server_config(CLIENTS * 2));
    let all_lines: Vec<Line> = lines.iter().flat_map(|(_, l)| l.clone()).collect();
    let core = replay::server_core(&mut server, &all_lines, &mut rec, &mut tally);
    let mut work = Work::default();
    for (i, (script, _)) in lines.iter().enumerate() {
        let s = &state.pool[*script];
        match replay::engine_session(
            &s.source,
            &s.batches,
            Advance::RunAtEnd,
            &mut rec,
            i as u64,
            true,
        ) {
            Ok(session) => work += session.work,
            Err(e) => tally.violation(format!("bare-engine replay: {e}")),
        }
    }
    if Some(work) != churn_counted(&plain, sizes) {
        tally.violation("bare-engine replay and daemon disagree on cycles/firings");
    }

    report.set(
        "trace.overhead_ratio",
        longest(&traced) / plain_wall,
        CLIENTS as u64,
    );
    set_frame_stats(
        &mut report,
        &plain_latencies,
        plain_traffic.frames as f64 / plain_wall,
    );
    set_verb_spans(&mut report, &rec);
    set_engine_spans(&mut report, &rec);
    report.set(
        "server.core_us_per_frame",
        core.us_per_frame(),
        core.frames(),
    );
    report.set(
        "server.transport_us_per_frame",
        stats::median(&plain_latencies).unwrap_or(0.0) * 1e3
            - stats::median(&core.frame_us).unwrap_or(0.0),
        core.frames(),
    );
    report.set(
        "server.engine_share",
        engine_time(&rec).as_secs_f64() / core.wall.as_secs_f64().max(1e-9),
        core.frames(),
    );
    set_traffic_and_cpu(&mut report, &plain_traffic, &spent);
    report.set_work(work, lines.len() as u64);
    report.zero_fill_per_layer();

    let Churn {
        clients, daemon, ..
    } = state;
    drop(daemon);
    merge_clients(clients, &mut tally, &mut rec);
    write_trace(&rec, env, "serve-churn", &mut tally);
    report.tally = tally;
    report
}

// --- serve-durable -------------------------------------------------------

const SNAPSHOT_EVERY: u64 = 64;

struct DurableSession {
    name: String,
    index: u64,
    stream: OrderStream,
    /// Inject+step rounds acknowledged so far (warm-up included).
    rounds: u64,
}

struct Durable {
    daemon: Daemon,
    flags: Vec<String>,
    wal_dir: PathBuf,
    clients: Vec<Client>,
    /// Sessions per client.
    sessions: Vec<Vec<DurableSession>>,
    source: String,
}

/// One round: every session of the client gets one 16-order inject and
/// one `step`.
fn durable_round(client: &mut Client, sessions: &mut [DurableSession]) {
    for session in sessions {
        let batch = session.stream.next_batch();
        client.frame(
            Verb::Inject.frame_span(),
            session.index,
            &gen::inject_frame(&session.name, &batch),
        );
        client.frame(
            Verb::Step.frame_span(),
            session.index,
            &gen::verb_frame("step", &session.name),
        );
        session.rounds += 1;
    }
}

fn durable_drive(state: &mut Durable, until: Until) -> Vec<(Duration, usize)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .zip(&mut state.sessions)
            .map(|(client, sessions)| {
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut rounds = 0;
                    while until.more(rounds) {
                        durable_round(client, sessions);
                        rounds += 1;
                    }
                    (started.elapsed(), rounds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn durable_flags(wal_dir: &Path, sessions: usize) -> Vec<String> {
    let mut f = flags(&["--workers", "2", "--wal-sync", "always"]);
    f.extend([
        "--max-sessions".to_string(),
        (sessions + 8).to_string(),
        "--snapshot-every".to_string(),
        SNAPSHOT_EVERY.to_string(),
        "--wal-dir".to_string(),
        wal_dir.display().to_string(),
    ]);
    f
}

fn durable_set_up(env: &Env, seed: u64) -> Result<Durable, String> {
    let wal_dir = env.out_dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir)
        .map_err(|e| format!("creating {}: {e}", wal_dir.display()))?;
    let flags = durable_flags(&wal_dir, env.sizes.durable_sessions);
    let (daemon, _) = boot(env.daemon_bin, &flags)?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(daemon.addr, Recorder::off()))
        .collect::<Result<Vec<_>, _>>()?;
    let sessions = (0..CLIENTS)
        .map(|c| {
            (c..env.sizes.durable_sessions)
                .step_by(CLIENTS)
                .map(|i| DurableSession {
                    name: format!("d{i}"),
                    index: i as u64,
                    stream: OrderStream::new(seed, i as u64),
                    rounds: 0,
                })
                .collect()
        })
        .collect();
    let mut state = Durable {
        daemon,
        flags,
        wal_dir,
        clients,
        sessions,
        source: gen::market_source(),
    };
    for (client, sessions) in state.clients.iter_mut().zip(&state.sessions) {
        client.recording = false;
        for session in sessions {
            client.frame(
                Verb::Open.frame_span(),
                session.index,
                &gen::open_frame(&session.name, &state.source),
            );
        }
    }
    durable_drive(&mut state, Until::Count(1));
    for client in &mut state.clients {
        client.recording = true;
    }
    Ok(state)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Every session's fingerprint, asked over the clients' connections.
fn durable_fingerprints(
    clients: &mut [Client],
    sessions: &[Vec<DurableSession>],
) -> Vec<Vec<Option<String>>> {
    clients
        .iter_mut()
        .zip(sessions)
        .map(|(client, sessions)| {
            client.recording = false;
            sessions
                .iter()
                .map(|s| {
                    client
                        .frame(
                            Verb::Metrics.frame_span(),
                            s.index,
                            &gen::verb_frame("metrics", &s.name),
                        )
                        .then(|| {
                            json::response_str(client.wire.last(), "fingerprint")
                                .map(str::to_string)
                        })
                        .flatten()
                })
                .collect()
        })
        .collect()
}

/// The batches session `index` has been sent after `rounds` rounds.
fn durable_batches(seed: u64, index: u64, rounds: u64) -> Vec<Vec<Fact>> {
    let mut stream = OrderStream::new(seed, index);
    (0..rounds).map(|_| stream.next_batch()).collect()
}

/// What the crash-and-recover tail of a serve-durable run measured.
struct Recovered {
    recovery: Duration,
    wal_bytes: u64,
    changes_acked: u64,
    before_kill: DaemonUsage,
}

impl Recovered {
    /// WAL directory bytes at the kill per WME change acknowledged.
    fn bytes_per_change(&self) -> f64 {
        self.wal_bytes as f64 / self.changes_acked.max(1) as f64
    }
}

/// Checks every session against its single-engine reference, kills the
/// daemon with SIGKILL, restarts it on the same directory, times spawn →
/// first `ping`, and checks every fingerprint survived.
fn durable_crash_and_recover(
    env: &Env,
    seed: u64,
    state: Durable,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Option<Recovered> {
    let Durable {
        daemon,
        flags,
        wal_dir,
        mut clients,
        sessions,
        source,
    } = state;
    let before = durable_fingerprints(&mut clients, &sessions);
    for (session, fingerprint) in sessions.iter().flatten().zip(before.iter().flatten()) {
        let batches = durable_batches(seed, session.index, session.rounds);
        match replay::reference_fingerprint(&source, &batches, Advance::StepEach) {
            Ok(reference) if Some(&reference) == fingerprint.as_ref() => tally.ok(),
            Ok(_) => tally.fail(format!(
                "{} differs from its single-engine reference",
                session.name
            )),
            Err(e) => tally.fail(format!("{} reference: {e}", session.name)),
        }
    }
    let changes_acked: u64 = sessions
        .iter()
        .flatten()
        .map(|s| s.rounds * gen::BATCH as u64)
        .sum();
    let wal_bytes = dir_bytes(&wal_dir);
    let before_kill = usage(&daemon);
    daemon.kill();
    merge_clients(clients, tally, rec);

    let recovered = match boot(env.daemon_bin, &flags) {
        Ok((daemon, recovery)) => {
            let mut clients: Vec<Client> = (0..CLIENTS)
                .filter_map(|_| Client::connect(daemon.addr, Recorder::off()).ok())
                .collect();
            if clients.len() == CLIENTS {
                let after = durable_fingerprints(&mut clients, &sessions);
                for (session, (b, a)) in sessions
                    .iter()
                    .flatten()
                    .zip(before.iter().flatten().zip(after.iter().flatten()))
                {
                    if a.is_some() && a == b {
                        tally.ok();
                    } else {
                        tally.fail(format!(
                            "{} did not recover its pre-kill fingerprint",
                            session.name
                        ));
                    }
                }
            } else {
                tally.fail("could not reconnect after recovery");
            }
            merge_clients(clients, tally, &mut Recorder::off());
            Some(Recovered {
                recovery,
                wal_bytes,
                changes_acked,
                before_kill,
            })
        }
        Err(e) => {
            tally.fail(format!("restart after kill -9: {e}"));
            None
        }
    };
    let _ = std::fs::remove_dir_all(&wal_dir);
    recovered
}

const DURABLE_LOAD: &str = "long-lived market sessions, round-robin inject(16)+step; daemon --workers 2 --wal-sync always --snapshot-every 64";

pub fn durable(env: &Env, seed: u64, seconds: f64) -> RunReport {
    let mut report = RunReport::new(
        "serve-durable",
        seed,
        seconds,
        false,
        load(CLIENTS, DURABLE_LOAD),
    );
    let sizes = env.sizes;
    let (mut state, mut setup_times) =
        match timed_set_up(sizes.setup_reps, || durable_set_up(env, seed)) {
            Ok(ok) => ok,
            Err(e) => return fail_report(report, e),
        };
    let mut tally = Tally::default();
    let cpu_before = usage(&state.daemon).cpu_s;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let driven = durable_drive(&mut state, Until::Deadline(deadline));

    // A round is one pass over the client's sessions: inject and step.
    let per_client: Vec<ClientOps> = state
        .clients
        .iter()
        .zip(&state.sessions)
        .map(|(client, sessions)| ClientOps {
            ops: &client.ops,
            per_round: 2 * sessions.len(),
        })
        .collect();
    let measured = Steady::of(&per_client);
    let latencies = all_latencies_ms(&state.clients);
    let rounds: usize = driven.iter().map(|(_, r)| r).sum();
    let recovered = durable_crash_and_recover(env, seed, state, &mut tally, &mut Recorder::off());
    late_set_ups(sizes.setup_reps_late, &mut setup_times, &mut tally, || {
        durable_set_up(env, seed)
    });
    let _ = std::fs::remove_dir_all(env.out_dir.join("wal"));

    let peak = recovered
        .as_ref()
        .map_or(f64::NAN, |r| r.before_kill.peak_rss_mib);
    set_end_to_end(&mut report, &setup_times, measured, &latencies, peak);
    let frames = latencies.len() as u64;
    report.set_extra(
        "frames_per_s_whole_window",
        frames as f64 / longest(&driven).max(1e-9),
        "1/s",
        frames,
    );
    report.set_extra("rounds", rounds as f64, "count", CLIENTS as u64);
    if let Some(r) = recovered {
        report.set_extra("recovery_s", r.recovery.as_secs_f64(), "s", 1);
        report.set_extra(
            "wal_bytes_per_change",
            r.bytes_per_change(),
            "B",
            r.changes_acked,
        );
        report.set_extra("daemon_cpu_s", r.before_kill.cpu_s - cpu_before, "s", 1);
    }
    report.tally = tally;
    report
}

/// The lines one durable session has sent after `rounds` rounds.
fn durable_lines(seed: u64, source: &str, index: u64, rounds: u64) -> Vec<Line> {
    let name = format!("d{index}");
    let mut lines = vec![Line {
        verb: Verb::Open,
        text: gen::open_frame(&name, source),
    }];
    for batch in durable_batches(seed, index, rounds) {
        lines.push(Line {
            verb: Verb::Inject,
            text: gen::inject_frame(&name, &batch),
        });
        lines.push(Line {
            verb: Verb::Step,
            text: gen::verb_frame("step", &name),
        });
    }
    lines
}

/// Interleaves per-session scripts the way a client does: every open
/// first, then round by round across sessions.
fn round_robin(scripts: &[Vec<Line>]) -> Vec<Line> {
    let mut out: Vec<Line> = scripts.iter().map(|s| s[0].clone()).collect();
    let longest = scripts.iter().map(Vec::len).max().unwrap_or(0);
    for at in (1..longest).step_by(2) {
        for script in scripts {
            out.extend(script.get(at..at + 2).unwrap_or(&[]).iter().cloned());
        }
    }
    out
}

pub fn durable_traced(env: &Env, seed: u64, seconds: f64) -> RunReport {
    let mut report = RunReport::new(
        "serve-durable",
        seed,
        seconds,
        true,
        load(CLIENTS, DURABLE_LOAD),
    );
    let mut tally = Tally::default();
    let sizes = env.sizes;
    let rounds = sizes.durable_counted_rounds;
    let sessions = sizes.durable_sessions as u64;
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);

    // Pass 1 over TCP, untraced, then the crash and the recovery.
    let mut state = match durable_set_up(env, seed) {
        Ok(state) => state,
        Err(e) => return fail_report(report, e),
    };
    let meter = CpuMeter::start(&state.daemon);
    let plain = durable_drive(&mut state, Until::Count(rounds));
    let (spent, _) = meter.stop(&state.daemon);
    let plain_wall = longest(&plain).max(1e-9);
    let plain_latencies = all_latencies_ms(&state.clients);
    let plain_traffic = traffic(&state.clients);
    let source = state.source.clone();
    let recovered = durable_crash_and_recover(env, seed, state, &mut tally, &mut Recorder::off());

    // Pass 2 over TCP on a fresh daemon and directory, traced.
    let traced_wall = match durable_set_up(env, seed) {
        Ok(mut state) => {
            for client in &mut state.clients {
                client.rec = Recorder::new(origin);
            }
            let traced = durable_drive(&mut state, Until::Count(rounds));
            let Durable {
                daemon,
                clients,
                wal_dir,
                ..
            } = state;
            drop(daemon);
            let _ = std::fs::remove_dir_all(wal_dir);
            merge_clients(clients, &mut tally, &mut rec);
            longest(&traced)
        }
        Err(e) => {
            tally.violation(format!("traced pass: {e}"));
            f64::NAN
        }
    };

    // In-process: the same script through the protocol core with the
    // WAL off and on, then recovery alone over the logs that left.
    let total_rounds = rounds as u64 + 1;
    let scripts: Vec<Vec<Line>> = (0..sessions)
        .map(|i| durable_lines(seed, &source, i, total_rounds))
        .collect();
    let script = round_robin(&scripts);
    let max_sessions = sizes.durable_sessions + 8;
    let off = replay::server_core(
        &mut Server::new(replay::server_config(max_sessions)),
        &script,
        &mut rec,
        &mut tally,
    );
    set_verb_spans(&mut report, &rec);

    let replay_dir = env.out_dir.join("wal-replay");
    let _ = std::fs::remove_dir_all(&replay_dir);
    let mut wal_config = WalConfig::new(&replay_dir, SyncPolicy::Always);
    wal_config.snapshot_every = SNAPSHOT_EVERY;
    let mut durable_server =
        Server::with_wal(replay::server_config(max_sessions), wal_config.clone());
    let on = replay::server_core(
        &mut durable_server,
        &script,
        &mut Recorder::off(),
        &mut tally,
    );
    let totals = durable_server
        .handle_line("{\"op\":\"metrics\"}")
        .unwrap_or_default();
    let wal_records = json::response_num(&totals, "wal_records").unwrap_or(0.0) as u64;
    let wal_compactions = json::response_num(&totals, "wal_snapshots").unwrap_or(0.0) as u64;
    // Dropped without a shutdown frame: the logs stay as a crash would
    // leave them, which is what recovery then reads.
    drop(durable_server);
    let recovery = replay::recovery_layer(&wal_config, max_sessions, &mut tally);
    let _ = std::fs::remove_dir_all(&replay_dir);

    // A bare engine per session, and its snapshot round trip.
    let mut work = Work::default();
    let mut snapshot = Vec::new();
    for i in 0..sessions {
        let batches = durable_batches(seed, i, total_rounds);
        let session =
            replay::engine_session(&source, &batches, Advance::StepEach, &mut rec, i, true);
        let round_trip = session.and_then(|session| {
            work += session.work;
            let mut engine = session.engine;
            snapshot = rec.span("engine.snapshot", i, |_| engine.checkpoint().to_bytes());
            rec.span("engine.restore", i, |_| {
                let decoded =
                    parulel_engine::Snapshot::from_bytes(&snapshot).map_err(|e| e.to_string())?;
                engine.restore(&decoded).map_err(|e| e.to_string())
            })
        });
        if let Err(e) = round_trip {
            tally.violation(format!("bare-engine replay: {e}"));
        }
    }

    // The WAL layer alone. The counted script is shorter than a
    // compaction period, so it is driven with a period of 8 records to
    // time `compact` too.
    let wal_dir = env.out_dir.join("wal-layer");
    for (i, lines) in scripts.iter().enumerate().take(32) {
        if let Err(e) = replay::wal_layer(&wal_dir, &format!("d{i}"), lines, &snapshot, 8, &mut rec)
        {
            tally.violation(format!("driving SessionWal: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    report.set(
        "trace.overhead_ratio",
        traced_wall / plain_wall,
        CLIENTS as u64,
    );
    set_frame_stats(
        &mut report,
        &plain_latencies,
        plain_traffic.frames as f64 / plain_wall,
    );
    set_engine_spans(&mut report, &rec);
    report.set("server.core_us_per_frame", off.us_per_frame(), off.frames());
    report.set(
        "server.transport_us_per_frame",
        stats::median(&plain_latencies).unwrap_or(0.0) * 1e3
            - stats::median(&on.frame_us).unwrap_or(0.0),
        on.frames(),
    );
    report.set(
        "server.engine_share",
        engine_time(&rec).as_secs_f64() / off.wall.as_secs_f64().max(1e-9),
        off.frames(),
    );
    report.set_work(work, sessions);
    for (metric, span) in [
        ("engine.snapshot_us", "engine.snapshot"),
        ("engine.restore_us", "engine.restore"),
        ("wal.append_us", "wal.append"),
        ("wal.fsync_us", "wal.fsync"),
        ("wal.compact_us", "wal.compact"),
    ] {
        let (count, median_us) = rec.median_us(span);
        report.set(metric, median_us, count);
    }
    report.set("engine.snapshot_bytes", snapshot.len() as f64, 1);
    report.set(
        "wal.overhead_ratio",
        on.wall.as_secs_f64() / off.wall.as_secs_f64().max(1e-9),
        on.frames(),
    );
    report.set_exact("wal.records", wal_records, on.frames());
    report.set(
        "wal.fsyncs",
        (wal_records + wal_compactions) as f64,
        on.frames(),
    );
    report.set("wal.compactions", wal_compactions as f64, on.frames());
    report.set(
        "recovery.scan_us",
        recovery.scan.as_secs_f64() * 1e6,
        recovery.sessions,
    );
    report.set(
        "recovery.replay_us",
        recovery.recover.saturating_sub(recovery.scan).as_secs_f64() * 1e6,
        recovery.sessions,
    );
    report.set_exact("recovery.sessions", recovery.sessions, 1);
    report.set_exact("recovery.frames_replayed", recovery.frames_replayed, 1);
    set_traffic_and_cpu(&mut report, &plain_traffic, &spent);
    if let Some(r) = recovered {
        report.set_exact("wal.bytes", r.wal_bytes, 1);
        report.set(
            "wal.bytes_per_change",
            r.bytes_per_change(),
            r.changes_acked,
        );
        report.set("recovery.restart_s", r.recovery.as_secs_f64(), 1);
    }
    report.zero_fill_per_layer();
    write_trace(&rec, env, "serve-durable", &mut tally);
    report.tally = tally;
    report
}

// --- serve-contend -------------------------------------------------------

/// Cycles the daemon runs of a long run before serving other frames.
const RUN_QUANTUM: &str = "32";

struct Contend {
    daemon: Daemon,
    victim: Client,
    neighbor: Client,
    chain: Vec<Vec<Fact>>,
    source: String,
    /// The chain's single-engine reference: fingerprint and work.
    expected: String,
    work: Work,
    /// Neighbor round trips while the victim was idle.
    idle_ms: Vec<f64>,
    neighbor_seq: u64,
    victim_runs: usize,
}

/// The neighbor's `seq`-th frame: `ping` and one-fact `inject` in turn,
/// with a `step` every 64 frames so its inject queue never fills.
fn neighbor_frame(seq: u64) -> (Verb, String) {
    if seq % 64 == 63 {
        (Verb::Step, gen::verb_frame("step", "neighbor"))
    } else if seq.is_multiple_of(2) {
        (Verb::Ping, gen::PING.to_string())
    } else {
        (
            Verb::Inject,
            gen::inject_frame("neighbor", &[Fact::ints("tick", &[seq as i64])]),
        )
    }
}

fn neighbor_send(state: &mut Contend) {
    let (verb, line) = neighbor_frame(state.neighbor_seq);
    state.neighbor_seq += 1;
    state.neighbor.frame(verb.frame_span(), 0, &line);
}

/// One long run in a fresh session: open, inject the chain, `run` to
/// fixpoint (fingerprint checked), close. Returns the `run` frame's
/// timing when it succeeded.
fn victim_run(
    victim: &mut Client,
    k: usize,
    source: &str,
    chain: &[Vec<Fact>],
    expect: Option<(&str, Work)>,
    running: &AtomicBool,
) -> Option<Op> {
    let name = format!("victim-{k}");
    let op_id = k as u64 + 1;
    victim.rec.enter("victim", op_id);
    victim.frame(
        Verb::Open.frame_span(),
        op_id,
        &gen::open_frame(&name, source),
    );
    for batch in chain {
        victim.frame(
            Verb::Inject.frame_span(),
            op_id,
            &gen::inject_frame(&name, batch),
        );
    }
    running.store(true, Ordering::SeqCst);
    let ok = victim.frame(
        Verb::Run.frame_span(),
        op_id,
        &gen::verb_frame("run", &name),
    );
    running.store(false, Ordering::SeqCst);
    let run = if ok && victim.recording {
        victim.ops.last().copied()
    } else {
        None
    };
    if let (true, Some((fingerprint, work))) = (ok, expect) {
        let reply = victim.wire.last();
        let same = json::response_str(reply, "fingerprint") == Some(fingerprint)
            && json::response_num(reply, "cycles") == Some(work.cycles as f64)
            && json::response_num(reply, "firings") == Some(work.firings as f64);
        if !same {
            victim
                .tally
                .violation(format!("{name} reached a state other than the reference"));
        }
    }
    victim.frame(
        Verb::Close.frame_span(),
        op_id,
        &gen::verb_frame("close", &name),
    );
    victim.rec.exit();
    run
}

fn contend_set_up(env: &Env, seed: u64) -> Result<Contend, String> {
    let chain = gen::chain_batches(seed, env.sizes.contend_chain);
    let source = gen::closure_source();
    let reference = replay::engine_session(
        &source,
        &chain,
        Advance::RunAtEnd,
        &mut Recorder::off(),
        0,
        false,
    )?;
    let (daemon, _) = boot(
        env.daemon_bin,
        &flags(&["--workers", "1", "--run-quantum", RUN_QUANTUM]),
    )?;
    let mut state = Contend {
        victim: Client::connect(daemon.addr, Recorder::off())?,
        neighbor: Client::connect(daemon.addr, Recorder::off())?,
        daemon,
        chain,
        source,
        expected: parulel_server::fingerprint_hex(reference.engine.wm()),
        work: reference.work,
        idle_ms: Vec::new(),
        neighbor_seq: 0,
        victim_runs: 0,
    };
    // A neighbor frame is matched to the victim run it waited behind.
    state.neighbor.clock = state.victim.clock;
    state.neighbor.frame(
        Verb::Open.frame_span(),
        0,
        &gen::open_frame("neighbor", gen::TICK_SOURCE),
    );
    // Warm the victim's path with a quarter-length chain (a sixteenth
    // of the work), then take the neighbor's idle baseline.
    state.victim.recording = false;
    let short = gen::chain_batches(seed, env.sizes.contend_chain / 4);
    victim_run(
        &mut state.victim,
        usize::MAX - 1,
        &state.source,
        &short,
        None,
        &AtomicBool::new(false),
    );
    state.victim.recording = true;
    for _ in 0..env.sizes.contend_idle_frames {
        neighbor_send(&mut state);
    }
    state.idle_ms = state.neighbor.latencies_ms();
    state.neighbor.ops.clear();
    Ok(state)
}

/// What one contended window measured.
struct Contended {
    /// The victim's `run` frames, each carrying the run's firings.
    runs: Vec<Op>,
    /// Neighbor frames that began and ended inside a victim run.
    busy: Vec<Op>,
}

impl Contended {
    fn run_s(&self) -> Vec<f64> {
        self.runs.iter().map(|op| op.ms() / 1e3).collect()
    }

    fn busy_ms(&self) -> Vec<f64> {
        self.busy.iter().map(Op::ms).collect()
    }

    /// One round per victim run: what a neighbor frame in flight at a
    /// random moment of that run takes (each frame weighted by its own
    /// duration), and the run's own firings per second.
    ///
    /// A plain median would not do. Whether the shard serves one queued
    /// neighbor frame between two slices or a dozen depends on a race
    /// between the client's turnaround and the worker's inbox poll, and
    /// the host decides that race differently from one minute to the
    /// next: the median flips between one slice (~30 ms) and one idle
    /// round trip (~0.02 ms). Time in flight is spent behind slices
    /// either way.
    fn steady(&self) -> Steady {
        let in_flight_ms = |run: &Op| -> Option<f64> {
            let (mut total, mut squares) = (0.0, 0.0);
            for frame in &self.busy {
                if frame.start_s >= run.start_s && frame.end_s <= run.end_s {
                    total += frame.ms();
                    squares += frame.ms() * frame.ms();
                }
            }
            (total > 0.0).then(|| squares / total)
        };
        Steady {
            round_ms: self.runs.iter().filter_map(in_flight_ms).collect(),
            round_rates: vec![stats::rounds(&self.runs, 1)
                .iter()
                .map(|r| r.units_per_s)
                .collect()],
        }
    }
}

/// The victim runs back to back until `until`; the neighbor keeps its
/// closed loop going throughout and stops when the victim has.
fn contend_drive(state: &mut Contend, until: Until) -> Contended {
    let running = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let first_run = state.victim_runs;
    let Contend {
        victim,
        neighbor,
        chain,
        source,
        expected,
        work,
        neighbor_seq,
        ..
    } = state;
    let (runs, busy) = std::thread::scope(|scope| {
        let victim_thread = scope.spawn(|| {
            let mut runs = Vec::new();
            while until.more(runs.len()) {
                let k = first_run + runs.len();
                if let Some(op) = victim_run(
                    victim,
                    k,
                    source,
                    chain,
                    Some((expected.as_str(), *work)),
                    &running,
                ) {
                    runs.push(Op {
                        units: work.firings as f64,
                        ..op
                    });
                }
            }
            done.store(true, Ordering::SeqCst);
            runs
        });
        let neighbor_thread = scope.spawn(|| {
            let mut busy = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let (verb, line) = neighbor_frame(*neighbor_seq);
                *neighbor_seq += 1;
                let before = running.load(Ordering::SeqCst);
                let ok = neighbor.frame(verb.frame_span(), 0, &line);
                if ok && before && running.load(Ordering::SeqCst) {
                    busy.push(*neighbor.ops.last().expect("frame recorded"));
                }
            }
            busy
        });
        (
            victim_thread.join().expect("victim thread"),
            neighbor_thread.join().expect("neighbor thread"),
        )
    });
    state.victim_runs += runs.len();
    Contended { runs, busy }
}

const CONTEND_LOAD: &str = "victim: back-to-back closure runs over a 192-edge chain; neighbor: ping/inject/step on a session of the same shard; daemon --workers 1 --run-quantum 32";

pub fn contend(env: &Env, seed: u64, seconds: f64) -> RunReport {
    let mut report = RunReport::new(
        "serve-contend",
        seed,
        seconds,
        false,
        load(CLIENTS, CONTEND_LOAD),
    );
    let sizes = env.sizes;
    let (mut state, mut setup_times) =
        match timed_set_up(sizes.setup_reps, || contend_set_up(env, seed)) {
            Ok(ok) => ok,
            Err(e) => return fail_report(report, e),
        };
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let measured = contend_drive(&mut state, Until::Deadline(deadline));
    let peak_rss_mib = usage(&state.daemon).peak_rss_mib;
    let Contend {
        victim,
        neighbor,
        daemon,
        work,
        idle_ms,
        ..
    } = state;
    drop(daemon);
    late_set_ups(sizes.setup_reps_late, &mut setup_times, &mut tally, || {
        contend_set_up(env, seed)
    });

    let (busy_ms, run_s) = (measured.busy_ms(), measured.run_s());
    set_end_to_end(
        &mut report,
        &setup_times,
        measured.steady(),
        &busy_ms,
        peak_rss_mib,
    );
    let idle = stats::median(&idle_ms).unwrap_or(f64::NAN);
    report.set_extra(
        "long_run_s",
        stats::median(&run_s).unwrap_or(f64::NAN),
        "s",
        run_s.len() as u64,
    );
    report.set_extra("neighbor_idle_ms_p50", idle, "ms", idle_ms.len() as u64);
    report.set_extra(
        "slowdown_ratio",
        stats::median(&busy_ms).unwrap_or(f64::NAN) / idle,
        "ratio",
        0,
    );
    report.count_work(work);
    merge_clients(vec![victim, neighbor], &mut tally, &mut Recorder::off());
    report.tally = tally;
    report
}

pub fn contend_traced(env: &Env, seed: u64, seconds: f64) -> RunReport {
    let mut report = RunReport::new(
        "serve-contend",
        seed,
        seconds,
        true,
        load(CLIENTS, CONTEND_LOAD),
    );
    let mut state = match contend_set_up(env, seed) {
        Ok(state) => state,
        Err(e) => return fail_report(report, e),
    };
    let mut tally = Tally::default();
    let runs = env.sizes.contend_counted_runs;

    let meter = CpuMeter::start(&state.daemon);
    let window = Instant::now();
    let plain = contend_drive(&mut state, Until::Count(runs));
    let plain_wall = window.elapsed().as_secs_f64().max(1e-9);
    let (spent, _) = meter.stop(&state.daemon);
    let plain_traffic = traffic([&state.victim, &state.neighbor]);

    let origin = Instant::now();
    state.victim.rec = Recorder::new(origin);
    state.neighbor.rec = Recorder::new(origin);
    let traced = contend_drive(&mut state, Until::Count(runs));

    // The same run in-process with nothing else going on: the median
    // of three, since the first pays for cold caches.
    let mut rec = Recorder::new(origin);
    for i in 0..3 {
        let alone = replay::engine_session(
            &state.source,
            &state.chain,
            Advance::RunAtEnd,
            &mut rec,
            i,
            false,
        );
        if let Err(e) = alone {
            tally.violation(format!("bare-engine replay: {e}"));
        }
    }
    let (alone_runs, alone_us) = rec.median_us("engine.run");

    let idle = stats::median(&state.idle_ms).unwrap_or(0.0);
    let busy_ms = plain.busy_ms();
    let busy = stats::median(&busy_ms).unwrap_or(0.0);
    let long_run = stats::median(&plain.run_s()).unwrap_or(0.0);
    let (busy_n, runs) = (busy_ms.len() as u64, runs as u64);
    report.set(
        "trace.overhead_ratio",
        stats::median(&traced.run_s()).unwrap_or(f64::NAN) / long_run.max(1e-9),
        runs,
    );
    set_frame_stats(
        &mut report,
        &busy_ms,
        plain_traffic.frames as f64 / plain_wall,
    );
    report.set(
        "sched.neighbor_idle_ms_p50",
        idle,
        state.idle_ms.len() as u64,
    );
    report.set("sched.neighbor_busy_ms_p50", busy, busy_n);
    report.set(
        "sched.neighbor_busy_ms_p90",
        stats::percentile(&busy_ms, 0.90).unwrap_or(0.0),
        busy_n,
    );
    report.set("sched.slowdown_ratio", busy / idle.max(1e-9), busy_n);
    report.set("sched.long_run_s", long_run, runs);
    report.set(
        "sched.victim_slowdown_ratio",
        long_run * 1e6 / alone_us.max(1e-9),
        runs,
    );
    report.set("engine.run_us", alone_us, alone_runs);
    report.set_work(state.work, 1);
    set_traffic_and_cpu(&mut report, &plain_traffic, &spent);
    report.zero_fill_per_layer();

    let Contend {
        victim,
        neighbor,
        daemon,
        ..
    } = state;
    drop(daemon);
    merge_clients(vec![victim, neighbor], &mut tally, &mut rec);
    write_trace(&rec, env, "serve-contend", &mut tally);
    report.tally = tally;
    report
}
