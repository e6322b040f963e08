//! Implementations of the `run`, `check` and `fmt` subcommands.

use crate::args::{RunOpts, ServeOpts, ServeTransport, TraceSink};
use parulel_engine::{
    Engine, EngineOptions, FiringPolicy, GuardMode, MetricsLevel, Outcome, Snapshot, TraceBuffer,
};
use parulel_match::MatcherMetrics;
use std::io::Write;

/// Ring capacity for `--trace`: big enough to keep every event of a
/// realistic run, bounded so a runaway keeps only its tail.
const TRACE_RING: usize = 65_536;

fn read_file(path: &str, out: &mut dyn Write) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(src) => Some(src),
        Err(e) => {
            let _ = writeln!(out, "error: cannot read {path}: {e}");
            None
        }
    }
}

/// `parulel check FILE` — compile, report the first diagnostic.
pub fn check(path: &str, out: &mut dyn Write) -> i32 {
    let Some(src) = read_file(path, out) else {
        return 1;
    };
    match parulel_lang::compile_with_wm(&src) {
        Ok((program, wm)) => {
            let _ = writeln!(
                out,
                "{path}: ok ({} classes, {} rules, {} meta-rules, {} initial facts)",
                program.classes.len(),
                program.rules().len(),
                program.metas().len(),
                wm.len()
            );
            0
        }
        Err(e) => {
            let _ = writeln!(out, "{path}:{e}");
            1
        }
    }
}

/// `parulel fmt FILE` — parse and print the canonical form.
pub fn fmt(path: &str, out: &mut dyn Write) -> i32 {
    let Some(src) = read_file(path, out) else {
        return 1;
    };
    match parulel_lang::parse(&src) {
        Ok(ast) => {
            let _ = write!(out, "{}", parulel_lang::printer::print_program(&ast));
            0
        }
        Err(e) => {
            let _ = writeln!(out, "{path}:{e}");
            1
        }
    }
}

/// `parulel run FILE …` — execute.
pub fn run(opts: &RunOpts, out: &mut dyn Write) -> i32 {
    let Some(src) = read_file(&opts.file, out) else {
        return 1;
    };
    let (program, wm) = match parulel_lang::compile_with_wm(&src) {
        Ok(pair) => pair,
        Err(e) => {
            let _ = writeln!(out, "{}:{e}", opts.file);
            return 1;
        }
    };
    let engine_opts = EngineOptions {
        matcher: opts.matcher,
        max_cycles: opts.max_cycles,
        collect_log: !opts.no_log,
        budgets: opts.budgets.clone(),
        checkpoint_every: opts.checkpoint_every,
        metrics: if opts.metrics_out.is_some() {
            MetricsLevel::Full
        } else {
            MetricsLevel::Off
        },
        trace_events: opts.trace.as_ref().map(|_| TRACE_RING),
        ..Default::default()
    };

    // The CLI no longer branches on engine type: --engine picks a
    // firing policy, and one unified path drives the engine — so
    // budgets, checkpoint/resume, metrics, and traces work identically
    // for every policy.
    let policy = match opts.engine {
        FiringPolicy::FireAll { meta, .. } => FiringPolicy::FireAll {
            meta,
            guard: opts.guard,
        },
        select_one => select_one,
    };
    if matches!(policy, FiringPolicy::SelectOne(_)) && opts.guard != GuardMode::Off {
        let _ = writeln!(
            out,
            "warning: --guard is ignored by --engine lex/mea \
             (a select-one policy fires a single instantiation per cycle)"
        );
    }

    // `--resume FILE` replaces the program's `(wm …)` facts with the
    // checkpointed state.
    let mut e = if let Some(path) = &opts.resume {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(err) => {
                let _ = writeln!(out, "error: cannot read {path}: {err}");
                return 1;
            }
        };
        let snap = match Snapshot::from_bytes(&bytes) {
            Ok(s) => s,
            Err(err) => {
                let _ = writeln!(out, "error: {path}: {err}");
                return 1;
            }
        };
        if snap.policy != policy.tag() {
            let _ = writeln!(
                out,
                "note: {path} was captured under policy '{}'; continuing under '{}'",
                snap.policy,
                policy.tag()
            );
        }
        match Engine::resume_with_policy(&program, &snap, policy, engine_opts) {
            Ok(e) => e,
            Err(err) => {
                let _ = writeln!(out, "error: cannot resume from {path}: {err}");
                return 1;
            }
        }
    } else {
        Engine::with_policy(&program, wm, policy, engine_opts)
    };
    let mm = e.matcher_metrics();
    let result = e.run();
    // The cycles are printed however the run ended: the ones before a
    // budget trip explain it.
    if let (Some(TraceSink::Stdout), Some(ring)) = (&opts.trace, e.trace_events()) {
        print_cycles(out, ring, e.program());
    }
    let mut code = match result {
        Ok(o) => finish(out, opts, o, &e, &mm),
        Err(err) => {
            let _ = writeln!(out, "runtime error: {err}");
            1
        }
    };
    // The sinks are written even when the run failed: a trace that
    // ends in a budget trip is exactly the one worth keeping.
    if !write_sinks(out, opts, &e) && code == 0 {
        code = 1;
    }
    // `--checkpoint FILE`: persist the last captured checkpoint (a
    // budget trip always captures one; a clean exit falls back to the
    // final state), whatever the exit code.
    if let Some(path) = &opts.checkpoint {
        let snap = e
            .latest_checkpoint()
            .cloned()
            .unwrap_or_else(|| e.checkpoint());
        match std::fs::write(path, snap.to_bytes()) {
            Ok(()) => {
                let _ = writeln!(out, "checkpoint written to {path} (cycle {})", snap.cycle);
            }
            Err(err) => {
                let _ = writeln!(out, "error: cannot write {path}: {err}");
                return 1;
            }
        }
    }
    code
}

/// Bare `--trace`: one line per cycle event in the ring, opened by a line
/// counting the events the ring dropped, if any.
fn print_cycles(out: &mut dyn Write, ring: &TraceBuffer, program: &parulel_core::Program) {
    if ring.dropped() > 0 {
        let _ = writeln!(out, "trace: {} earlier events dropped", ring.dropped());
    }
    for line in ring.events().filter_map(|ev| ev.cycle_line(program)) {
        let _ = writeln!(out, "{line}");
    }
}

/// Write `e`'s `--metrics-out` and `--trace FILE` sinks, if requested.
/// Returns `false` if any requested sink could not be written.
fn write_sinks(out: &mut dyn Write, opts: &RunOpts, e: &Engine) -> bool {
    let mut ok = true;
    if let Some(path) = &opts.metrics_out {
        let doc = e.metrics().to_json(e.program(), &e.matcher_metrics(), e.stats());
        match std::fs::write(path, doc.pretty()) {
            Ok(()) => {
                let _ = writeln!(out, "metrics written to {path}");
            }
            Err(e) => {
                let _ = writeln!(out, "error: cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    if let Some(TraceSink::File(path)) = &opts.trace {
        let body = (e.trace_events())
            .map(|t| t.to_jsonl(e.program()))
            .unwrap_or_default();
        match std::fs::write(path, body) {
            Ok(()) => {
                let _ = writeln!(out, "trace written to {path}");
            }
            Err(e) => {
                let _ = writeln!(out, "error: cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    ok
}

/// Prints a finished run of `e`: the log, the outcome, and the `--stats`
/// and `--dump-wm` reports. `matcher` is the sample taken before the run.
fn finish(
    out: &mut dyn Write,
    opts: &RunOpts,
    outcome: Outcome,
    e: &Engine,
    matcher: &MatcherMetrics,
) -> i32 {
    let (stats, wm, program) = (e.stats(), e.wm(), e.program());
    for line in e.log() {
        let _ = writeln!(out, "{line}");
    }
    let ending = if outcome.halted {
        "halt"
    } else if outcome.hit_cycle_limit {
        "cycle limit"
    } else {
        "quiescence"
    };
    let _ = writeln!(
        out,
        "== {} firings in {} cycles ({ending}) ==",
        outcome.firings, outcome.cycles
    );
    if opts.stats {
        let _ = writeln!(
            out,
            "   firings/cycle {:.2} | peak eligible {} | redacted meta {} guard {}",
            stats.firings_per_cycle(),
            stats.peak_eligible,
            stats.redacted_meta,
            stats.redacted_guard
        );
        let _ = writeln!(
            out,
            "   match {:?} | redact {:?} | fire {:?} | apply {:?}",
            stats.match_time, stats.redact_time, stats.fire_time, stats.apply_time
        );
        // Report the shard count actually in effect, which may differ
        // from the requested one (a partitioned matcher never runs with
        // fewer than one shard).
        let _ = writeln!(
            out,
            "   matcher {} | shards {}",
            matcher.kind, matcher.shards
        );
    }
    if opts.dump_wm {
        let _ = writeln!(out, "-- final working memory ({} elements) --", wm.len());
        for w in wm.sorted_snapshot() {
            let decl = program.classes.decl(w.class);
            let mut line = format!("  ({}", program.interner.resolve(decl.name));
            for (attr, value) in decl.attrs.iter().zip(w.fields.iter()) {
                line.push_str(&format!(
                    " ^{} {}",
                    program.interner.resolve(*attr),
                    value.display(&program.interner)
                ));
            }
            line.push(')');
            let _ = writeln!(out, "{line}");
        }
    }
    if outcome.hit_cycle_limit {
        3
    } else {
        0
    }
}

/// Maps the parsed `serve` flags onto the daemon's config.
pub(crate) fn server_config(opts: &ServeOpts) -> parulel_server::ServerConfig {
    parulel_server::ServerConfig {
        max_sessions: opts.max_sessions,
        inject_queue: opts.inject_queue,
        default_budgets: opts.budgets.clone(),
        max_cycles: opts.max_cycles,
        metrics: opts.metrics,
    }
}

/// Capacity of each scheduler shard's frame inbox: frames queued beyond
/// this come back as backpressure error frames (the inject-queue
/// pattern applied to the scheduling layer).
const SHARD_INBOX: usize = 256;

/// Resolves the `--wal-dir`/`--wal-sync`/`--snapshot-every` flags into
/// a WAL config (`None` without `--wal-dir`).
fn wal_config(opts: &ServeOpts) -> Result<Option<parulel_server::WalConfig>, String> {
    let Some(dir) = &opts.wal_dir else {
        return Ok(None);
    };
    let sync = parulel_server::SyncPolicy::parse(&opts.wal_sync)?;
    let mut wal = parulel_server::WalConfig::new(dir, sync);
    wal.snapshot_every = opts.snapshot_every;
    Ok(Some(wal))
}

/// Builds one server per scheduler shard. All shards share one
/// admission gauge (so `--max-sessions` bounds the daemon, not each
/// shard). With `--wal-dir`, each shard recovers
/// exactly the WAL files whose sessions hash to it — the same
/// partition the scheduler routes live frames by — before any
/// transport accepts a frame.
fn build_shard_servers(opts: &ServeOpts) -> Result<Vec<parulel_server::Server>, String> {
    let config = server_config(opts);
    let wal = wal_config(opts)?;
    let mut servers: Vec<parulel_server::Server> = Vec::with_capacity(opts.workers);
    let mut recovery = parulel_server::RecoveryReport::default();
    for shard in 0..opts.workers {
        let mut server = match &wal {
            Some(w) => parulel_server::Server::with_wal(config.clone(), w.clone()),
            None => parulel_server::Server::new(config.clone()),
        };
        if let Some(first) = servers.first() {
            server.share_admission(first.admission_gauge());
        }
        if let Some(w) = &wal {
            let report = parulel_server::recover_shard(&mut server, w, shard, opts.workers);
            recovery.sessions_recovered += report.sessions_recovered;
            recovery.sessions_skipped += report.sessions_skipped;
            recovery.frames_replayed += report.frames_replayed;
            recovery.torn_records += report.torn_records;
            recovery.notes.extend(report.notes);
        }
        servers.push(server);
    }
    if wal.is_some() {
        eprintln!("parulel serve: recovery: {}", recovery.summary());
        for note in &recovery.notes {
            eprintln!("parulel serve: recovery: {note}");
        }
    }
    Ok(servers)
}

/// `parulel serve …` — run the rule-serving daemon until a `shutdown`
/// frame (or, on the socket transports, SIGTERM/SIGINT) arrives.
/// Listener announcements go to `out`; on the stdio transport stdout
/// *is* the protocol stream, so the banner goes to stderr instead.
///
/// The socket transports serve through the sharded scheduler and its
/// `poll(2)` dispatcher (`--workers` shards, `--run-quantum`-cycle run
/// slices); stdio stays the plain synchronous pump.
pub fn serve(opts: &ServeOpts, out: &mut dyn Write) -> i32 {
    let servers = match build_shard_servers(opts) {
        Ok(servers) => servers,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 1;
        }
    };
    let result = match &opts.transport {
        ServeTransport::Stdio => {
            eprintln!(
                "parulel serve: line-delimited JSON on stdio ({} sessions max); \
                 send {{\"op\":\"shutdown\"}} to stop",
                opts.max_sessions
            );
            let server = servers.into_iter().next().expect("one stdio server");
            parulel_server::serve_stdio(server)
        }
        ServeTransport::Tcp(addr) => parulel_server::spawn_sched_tcp(
            servers,
            opts.run_quantum,
            SHARD_INBOX,
            addr,
        )
        .map(|(bound, dispatcher)| {
            let _ = writeln!(out, "listening on tcp {bound}");
            let _ = dispatcher.join();
        }),
        ServeTransport::Unix(path) => {
            let _ = writeln!(out, "listening on unix {path}");
            parulel_server::serve_sched_unix(servers, opts.run_quantum, SHARD_INBOX, path)
        }
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::args::Command;
    use crate::run_cli;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const PROGRAM: &str = "
        (literalize count n)
        (wm (count ^n 0))
        (p step (count ^n <n>) (test (< <n> 3)) --> (modify 1 ^n (+ <n> 1)))
    ";

    /// A fresh file per call: the tests run in parallel and each removes
    /// its own input when done, so no two may share a path.
    fn temp_file(contents: &str) -> std::path::PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "parulel-cli-test-{}-{}.pll",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, contents).unwrap();
        path
    }

    fn cli(words: &[&str]) -> (i32, String) {
        let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run_cli(&argv, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn run_counts_to_three() {
        let f = temp_file(PROGRAM);
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--dump-wm", "--stats"]);
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("3 firings in 3 cycles"), "{output}");
        assert!(output.contains("(count ^n 3)"), "{output}");
        assert!(output.contains("firings/cycle"), "{output}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn run_with_trace_and_serial_engine() {
        let f = temp_file(PROGRAM);
        let (code, output) = cli(&[
            "run",
            f.to_str().unwrap(),
            "--engine",
            "lex",
            "--matcher",
            "treat",
        ]);
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("3 firings in 3 cycles"), "{output}");
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--trace"]);
        assert_eq!(code, 0);
        assert!(output.contains("cycle    1"), "{output}");
        assert!(output.contains("stepx1"), "{output}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn a_printed_trace_opens_with_what_the_ring_dropped() {
        let (program, wm) = parulel_lang::compile_with_wm(PROGRAM).unwrap();
        let opts = parulel_engine::EngineOptions {
            trace_events: Some(2),
            ..Default::default()
        };
        // Three cycles and a run-end into a ring of two.
        let mut e = parulel_engine::Engine::new(&program, wm, opts);
        e.run().unwrap();
        let mut buf = Vec::new();
        super::print_cycles(&mut buf, e.trace_events().unwrap(), &program);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "trace: 2 earlier events dropped");
        assert!(lines[1].starts_with("cycle    3:"), "{lines:?}");
        assert_eq!(lines.len(), 2, "{lines:?}");
    }

    #[test]
    fn cycle_limit_exit_code() {
        let f = temp_file(
            "(literalize n v)
             (wm (n ^v 0))
             (p forever (n ^v <x>) --> (modify 1 ^v (+ <x> 1)))",
        );
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--max-cycles", "7"]);
        assert_eq!(code, 3, "{output}");
        assert!(output.contains("cycle limit"), "{output}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn check_reports_ok_and_errors() {
        let good = temp_file(PROGRAM);
        let (code, output) = cli(&["check", good.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert!(output.contains("1 rules"), "{output}");
        assert!(output.contains("1 initial facts"), "{output}");
        std::fs::remove_file(good).ok();

        let bad = temp_file("(p broken (ghost) --> (halt))");
        let (code, output) = cli(&["check", bad.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(output.contains("unknown class"), "{output}");
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn fmt_roundtrips() {
        let f = temp_file(PROGRAM);
        let (code, formatted) = cli(&["fmt", f.to_str().unwrap()]);
        assert_eq!(code, 0);
        // the formatted output must itself compile
        assert!(
            parulel_lang::compile_with_wm(&formatted).is_ok(),
            "{formatted}"
        );
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn missing_file_and_bad_args() {
        let (code, output) = cli(&["run", "/no/such/file.pll"]);
        assert_eq!(code, 1);
        assert!(output.contains("cannot read"));
        let (code, output) = cli(&["run", "x", "--warp", "9"]);
        assert_eq!(code, 2);
        assert!(output.contains("USAGE"), "{output}");
        let (code, _) = cli(&["--help"]);
        assert_eq!(code, 0);
    }

    #[test]
    fn budget_trip_reports_structured_error() {
        let f = temp_file(
            "(literalize n v)
             (wm (n ^v 0))
             (p grow (n ^v <x>) --> (make n ^v (+ <x> 1)))",
        );
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--max-wm", "4"]);
        assert_eq!(code, 1, "{output}");
        assert!(
            output.contains("working memory budget exceeded at cycle"),
            "{output}"
        );
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--max-cs", "0"]);
        assert_eq!(code, 1, "{output}");
        assert!(
            output.contains("conflict-set budget exceeded at cycle 1") && output.contains("grow"),
            "{output}"
        );
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn checkpoint_and_resume_roundtrip_through_files() {
        let f = temp_file(
            "(literalize count n)
             (wm (count ^n 0))
             (p step (count ^n <n>) (test (< <n> 6)) --> (modify 1 ^n (+ <n> 1)))",
        );
        let mut snap_path = std::env::temp_dir();
        snap_path.push(format!("parulel-cli-test-{}.snap", std::process::id()));
        let snap = snap_path.to_str().unwrap();

        // Run the first 2 cycles only, writing a checkpoint.
        let (code, output) = cli(&[
            "run",
            f.to_str().unwrap(),
            "--max-cycles",
            "2",
            "--checkpoint",
            snap,
        ]);
        assert_eq!(code, 3, "{output}"); // cycle limit
        assert!(output.contains("checkpoint written"), "{output}");
        assert!(output.contains("(cycle 2)"), "{output}");

        // Resume and finish: 4 more firings, same final WM as a full run.
        // The trace covers only the resumed cycles: the snapshot carries
        // no trace.
        let (code, output) = cli(&[
            "run",
            f.to_str().unwrap(),
            "--resume",
            snap,
            "--dump-wm",
            "--trace",
        ]);
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("4 firings in 4 cycles"), "{output}");
        assert!(output.contains("(count ^n 6)"), "{output}");
        let cycles: Vec<&str> = output.lines().filter(|l| l.starts_with("cycle")).collect();
        assert_eq!(cycles.len(), 4, "{output}");
        assert!(cycles[0].starts_with("cycle    3:"), "{output}");

        // A corrupt snapshot is rejected cleanly.
        std::fs::write(&snap_path, b"garbage").unwrap();
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--resume", snap]);
        assert_eq!(code, 1);
        assert!(output.contains("not a snapshot"), "{output}");

        std::fs::remove_file(&snap_path).ok();
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn serial_checkpoint_and_resume_roundtrip_through_files() {
        // Regression (engine unification): these flags were a hard CLI
        // error with --engine lex/mea before the serial path was cut
        // over to the unified core. They must now round-trip exactly
        // like the parallel test above.
        let f = temp_file(
            "(literalize count n)
             (wm (count ^n 0))
             (p step (count ^n <n>) (test (< <n> 6)) --> (modify 1 ^n (+ <n> 1)))",
        );
        let mut snap_path = std::env::temp_dir();
        snap_path.push(format!("parulel-cli-test-serial-{}.snap", std::process::id()));
        let snap = snap_path.to_str().unwrap();

        // Run the first 2 cycles only, writing a checkpoint (also
        // exercising --checkpoint-every on the serial path).
        let (code, output) = cli(&[
            "run",
            f.to_str().unwrap(),
            "--engine",
            "lex",
            "--max-cycles",
            "2",
            "--checkpoint-every",
            "1",
            "--checkpoint",
            snap,
        ]);
        assert_eq!(code, 3, "{output}"); // cycle limit
        assert!(output.contains("checkpoint written"), "{output}");
        assert!(output.contains("(cycle 2)"), "{output}");

        // Resume and finish: 4 more firings, same final WM as a full run.
        let (code, output) = cli(&[
            "run",
            f.to_str().unwrap(),
            "--engine",
            "lex",
            "--resume",
            snap,
            "--dump-wm",
        ]);
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("4 firings in 4 cycles"), "{output}");
        assert!(output.contains("(count ^n 6)"), "{output}");

        // Resuming under a different policy works but says so.
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--resume", snap]);
        assert_eq!(code, 0, "{output}");
        assert!(
            output.contains("captured under policy 'select-one-lex'"),
            "{output}"
        );

        std::fs::remove_file(&snap_path).ok();
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn serial_engine_warns_when_guard_or_metas_are_dropped() {
        // --guard with a select-one policy is inert: the run proceeds
        // but a one-line warning says the flag did nothing.
        let f = temp_file(PROGRAM);
        let (code, output) = cli(&[
            "run",
            f.to_str().unwrap(),
            "--engine",
            "mea",
            "--guard",
            "ww",
        ]);
        assert_eq!(code, 0, "{output}");
        assert!(
            output.contains("warning: --guard is ignored by --engine lex/mea"),
            "{output}"
        );
        // Same flags under fire-all: no warning.
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--guard", "ww"]);
        assert_eq!(code, 0, "{output}");
        assert!(!output.contains("warning"), "{output}");
        std::fs::remove_file(f).ok();

        // A program with meta-rules run under select-one: the engine
        // pushes the dropped-meta-rules warning onto the run log, which
        // the CLI prints with the rest of the log.
        let f = temp_file(
            "(literalize a v)
             (wm (a ^v 1) (a ^v 2))
             (p r (a ^v <x>) --> (remove 1))
             (mp keep-max (inst r (a ^v <x>)) (inst r (a ^v <y>))
                 (test (< <x> <y>)) --> (redact 1))",
        );
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--engine", "lex"]);
        assert_eq!(code, 0, "{output}");
        assert!(
            output.contains("warning: select-one-lex ignores the program's 1 meta-rule(s)"),
            "{output}"
        );
        let (code, output) = cli(&["run", f.to_str().unwrap()]);
        assert_eq!(code, 0, "{output}");
        assert!(!output.contains("warning"), "{output}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn timeout_flag_aborts_with_structured_error() {
        let f = temp_file(
            "(literalize n v)
             (wm (n ^v 0))
             (p forever (n ^v <x>) --> (modify 1 ^v (+ <x> 1)))",
        );
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--timeout", "0"]);
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("timeout at cycle 1"), "{output}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn runtime_error_is_reported() {
        let f = temp_file(
            "(literalize n v)
             (wm (n ^v 1))
             (p crash (n ^v <x>) --> (make n ^v (// <x> 0)) (remove 1))",
        );
        let (code, output) = cli(&["run", f.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(output.contains("division by zero"), "{output}");
        std::fs::remove_file(f).ok();
    }

    fn temp_out(suffix: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("parulel-cli-test-{}-{suffix}", std::process::id()));
        path
    }

    #[test]
    fn metrics_out_writes_parseable_json() {
        let f = temp_file(PROGRAM);
        let mpath = temp_out("metrics.json");
        let m = mpath.to_str().unwrap();
        let (code, output) = cli(&["run", f.to_str().unwrap(), "--metrics-out", m, "--stats"]);
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("metrics written to"), "{output}");
        assert!(output.contains("matcher rete | shards 1"), "{output}");
        let doc =
            parulel_engine::Json::parse(&std::fs::read_to_string(&mpath).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(|j| j.as_str()),
            Some("parulel-metrics/v1")
        );
        assert_eq!(doc.get("cycles").and_then(|j| j.as_f64()), Some(3.0));
        let rules = doc.get("rules").and_then(|j| j.as_arr()).unwrap();
        assert_eq!(rules.len(), 1, "{doc:?}");
        assert_eq!(rules[0].get("rule").and_then(|j| j.as_str()), Some("step"));
        assert_eq!(rules[0].get("fired").and_then(|j| j.as_f64()), Some(3.0));
        std::fs::remove_file(&mpath).ok();
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn trace_file_writes_jsonl_even_on_budget_trip() {
        let f = temp_file(
            "(literalize n v)
             (wm (n ^v 0))
             (p grow (n ^v <x>) --> (make n ^v (+ <x> 1)))",
        );
        let tpath = temp_out("trace.jsonl");
        let t = tpath.to_str().unwrap();
        let (code, output) =
            cli(&["run", f.to_str().unwrap(), "--trace", t, "--max-wm", "4"]);
        assert_eq!(code, 1, "{output}"); // budget trips, but the trace lands
        assert!(output.contains("trace written to"), "{output}");
        // A bare trace prints the cycles before the trip as well.
        let (code, printed) = cli(&["run", f.to_str().unwrap(), "--trace", "--max-wm", "4"]);
        assert_eq!(code, 1, "{printed}");
        assert!(printed.contains("cycle    1:"), "{printed}");
        assert!(printed.contains("runtime error"), "{printed}");
        let body = std::fs::read_to_string(&tpath).unwrap();
        let mut lines = body.lines();
        let header = parulel_engine::Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(|j| j.as_str()),
            Some("parulel-trace/v2")
        );
        let events: Vec<parulel_engine::Json> = lines
            .map(|l| parulel_engine::Json::parse(l).unwrap())
            .collect();
        assert!(!events.is_empty());
        let cycle = (events.iter())
            .find(|e| e.get("ev").and_then(|j| j.as_str()) == Some("cycle"))
            .expect("a cycle event");
        let fired = cycle.get("fired").and_then(|f| f.get("grow"));
        assert_eq!(fired.and_then(|j| j.as_f64()), Some(1.0), "{body}");
        assert!(cycle.get("match_us").is_some(), "{body}");
        assert!(
            events.iter().any(|e| {
                e.get("ev").and_then(|j| j.as_str()) == Some("budget")
                    && e.get("kind").and_then(|j| j.as_str()) == Some("wm")
            }),
            "{body}"
        );
        std::fs::remove_file(&tpath).ok();
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn unwritable_metrics_sink_fails_the_run() {
        let f = temp_file(PROGRAM);
        let (code, output) = cli(&[
            "run",
            f.to_str().unwrap(),
            "--metrics-out",
            "/no/such/dir/metrics.json",
        ]);
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("cannot write"), "{output}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn command_parse_is_reexported() {
        // smoke: the library surface exposes the arg parser
        assert!(matches!(
            Command::parse(&["help".to_string()]),
            Ok(Command::Help)
        ));
    }

    #[test]
    fn serve_flags_map_onto_the_server_config() {
        let args: Vec<String> = [
            "serve",
            "--max-sessions",
            "3",
            "--inject-queue",
            "17",
            "--max-cycles",
            "99",
            "--metrics",
            "off",
            "--max-wm",
            "1000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Ok(Command::Serve(opts)) = Command::parse(&args) else {
            panic!()
        };
        let config = crate::commands::server_config(&opts);
        assert_eq!(config.max_sessions, 3);
        assert_eq!(config.inject_queue, 17);
        assert_eq!(config.max_cycles, 99);
        assert_eq!(config.metrics, parulel_engine::MetricsLevel::Off);
        assert_eq!(config.default_budgets.max_wm, Some(1000));
        assert_eq!(config.default_budgets.timeout, None);
    }

    #[test]
    fn serve_over_a_unix_socket_answers_ping_and_shuts_down() {
        use std::io::{BufRead, BufReader, Write as _};
        use std::os::unix::net::UnixStream;

        let mut path = std::env::temp_dir();
        path.push(format!("parulel-cli-serve-{}.sock", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let daemon = {
            let path_str = path_str.clone();
            std::thread::spawn(move || cli(&["serve", "--socket", &path_str]))
        };
        // The daemon binds asynchronously; poll for the socket file.
        let stream = {
            let mut tries = 0;
            loop {
                match UnixStream::connect(&path_str) {
                    Ok(s) => break s,
                    Err(_) if tries < 200 => {
                        tries += 1;
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(e) => panic!("connect {path_str}: {e}"),
                }
            }
        };
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for (frame, expect) in [
            (r#"{"op":"ping"}"#, r#"{"ok":true,"op":"ping"}"#),
            (
                r#"{"op":"shutdown"}"#,
                r#"{"ok":true,"op":"shutdown","sessions_closed":0}"#,
            ),
        ] {
            writer.write_all(frame.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert_eq!(response.trim_end(), expect);
        }
        let (code, output) = daemon.join().unwrap();
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("listening on unix"), "{output}");
        assert!(!std::path::Path::new(&path_str).exists());
    }
}
