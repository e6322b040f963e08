//! Hand-rolled argument parsing for the `parulel` binary.

use parulel_engine::{Budgets, GuardMode, MatcherKind, MetricsLevel, Strategy};
use std::time::Duration;

/// Usage text shown by `--help` and on argument errors.
pub const USAGE: &str = "\
parulel — the PARULEL parallel rule language

USAGE:
  parulel run FILE [OPTIONS]    execute a program
  parulel check FILE            compile only; report errors
  parulel fmt FILE              print canonical formatting
  parulel serve [OPTIONS]       rule-serving daemon (line-delimited JSON)
  parulel --help

RUN OPTIONS:
  --engine parallel|lex|mea     firing policy: PARULEL fire-all, or
                                OPS5 select-one LEX/MEA    [parallel]
  --matcher rete|treat|naive|prete:N|ptreat:N  (N >= 1)    [rete]
  --guard off|ww|serializable   interference guard; fire-all only,
                                warns under lex/mea        [off]
  --max-cycles N                safety cycle limit         [1000000]
  --trace [FILE]                print one line per cycle; with FILE,
                                write a structured JSONL trace instead
  --stats                       print phase times and counters
  --metrics-out FILE            write per-rule + matcher metrics JSON
  --dump-wm                     print the final working memory
  --no-log                      suppress (write ...) output

ROBUSTNESS OPTIONS (any engine):
  --timeout SECS                wall-clock budget for the run
  --max-wm N                    abort if working memory exceeds N WMEs
  --max-cs N                    abort if the conflict set exceeds N
  --max-delta N                 abort if one cycle changes > N WMEs
  --checkpoint-every N          keep a checkpoint every N cycles
  --checkpoint FILE             write the last checkpoint to FILE on exit
  --resume FILE                 resume from a checkpoint file

SERVE OPTIONS:
  --stdio                       serve stdin/stdout (the default)
  --tcp ADDR                    listen on a TCP address (e.g. 127.0.0.1:7466)
  --socket PATH                 listen on a Unix socket
  --max-sessions N              admission limit                  [64]
  --inject-queue N              per-session inject queue, in WME
                                changes (backpressure bound)     [1024]
  --max-cycles N                default per-run cycle limit      [1000000]
  --metrics off|rules|full      per-session metrics level        [rules]
  --wal-dir DIR                 per-session write-ahead logs under DIR;
                                sessions survive crashes and are
                                recovered at the next start
  --wal-sync always|interval|never
                                WAL fsync policy                 [always]
  --snapshot-every N            compact a session's WAL after N logged
                                frames (0 disables)              [64]
  --workers N                   shard sessions across N shared-nothing
                                scheduler threads (needs --tcp or
                                --socket)                        [1]
  --run-quantum N               slice long runs into N-cycle quanta so
                                sessions sharing a shard interleave
                                (0 = unsliced)                   [32]
  --timeout / --max-wm / --max-cs / --max-delta
                                default per-session budgets (an open
                                frame may override them)";

/// Which execution engine `run` uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineChoice {
    /// PARULEL match–redact–fire-all.
    Parallel,
    /// OPS5 baseline with this strategy.
    Serial(Strategy),
}

/// Parsed `run` options.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Program file path.
    pub file: String,
    /// Engine selection.
    pub engine: EngineChoice,
    /// Matcher selection.
    pub matcher: MatcherKind,
    /// Guard mode.
    pub guard: GuardMode,
    /// Cycle limit.
    pub max_cycles: u64,
    /// Print per-cycle traces.
    pub trace: bool,
    /// Write a structured JSONL trace to this file (`--trace FILE`).
    pub trace_out: Option<String>,
    /// Print run statistics.
    pub stats: bool,
    /// Write the metrics report (per-rule counters, peaks, matcher
    /// internals) as JSON to this file.
    pub metrics_out: Option<String>,
    /// Print the final working memory.
    pub dump_wm: bool,
    /// Suppress `(write …)` output.
    pub no_log: bool,
    /// Resource budgets (any engine).
    pub budgets: Budgets,
    /// Keep an in-engine checkpoint every N cycles.
    pub checkpoint_every: Option<u64>,
    /// Write the last checkpoint to this file on exit.
    pub checkpoint: Option<String>,
    /// Resume from this checkpoint file instead of the program's `(wm …)`
    /// facts.
    pub resume: Option<String>,
}

/// Where `serve` listens.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum ServeTransport {
    /// Line-delimited JSON over the process's stdin/stdout.
    #[default]
    Stdio,
    /// A TCP listener on this address.
    Tcp(String),
    /// A Unix-domain socket at this path.
    Unix(String),
}

/// Parsed `serve` options (mapped onto `parulel_server::ServerConfig`).
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Which transport to serve.
    pub transport: ServeTransport,
    /// Admission limit: concurrent sessions.
    pub max_sessions: usize,
    /// Per-session inject-queue capacity, in WME changes.
    pub inject_queue: usize,
    /// Default per-session budgets (an `open` frame may override).
    pub budgets: Budgets,
    /// Default per-run cycle limit.
    pub max_cycles: u64,
    /// Per-session metrics collection level.
    pub metrics: MetricsLevel,
    /// Durability: write-ahead-log directory (`None` = no durability).
    pub wal_dir: Option<String>,
    /// WAL fsync policy (`always`/`interval`/`never`).
    pub wal_sync: String,
    /// Compact a session's WAL after this many logged frames (0
    /// disables automatic compaction).
    pub snapshot_every: u64,
    /// Scheduler worker threads: sessions shard across this many
    /// shared-nothing workers (socket transports only; 1 = the
    /// single-threaded scheduler, still byte-compatible with the
    /// legacy single-lock server).
    pub workers: usize,
    /// Step quantum: a long `run` executes in slices of this many
    /// cycles so neighbor sessions on the same shard interleave
    /// (0 = unsliced, a run occupies its shard to completion).
    pub run_quantum: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            transport: ServeTransport::Stdio,
            max_sessions: 64,
            inject_queue: 1024,
            budgets: Budgets::unlimited(),
            max_cycles: 1_000_000,
            metrics: MetricsLevel::Rules,
            wal_dir: None,
            wal_sync: "always".to_string(),
            snapshot_every: 64,
            workers: 1,
            run_quantum: 32,
        }
    }
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub enum Command {
    /// `--help` (or no arguments).
    Help,
    /// `run FILE …`
    Run(Box<RunOpts>),
    /// `check FILE`
    Check {
        /// Program file path.
        file: String,
    },
    /// `fmt FILE`
    Fmt {
        /// Program file path.
        file: String,
    },
    /// `serve …`
    Serve(Box<ServeOpts>),
}

impl Command {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Command, String> {
        let mut it = argv.iter();
        let Some(cmd) = it.next() else {
            return Ok(Command::Help);
        };
        match cmd.as_str() {
            "--help" | "-h" | "help" => Ok(Command::Help),
            "check" => {
                let file = it.next().ok_or("check needs a FILE")?.clone();
                expect_end(it)?;
                Ok(Command::Check { file })
            }
            "fmt" => {
                let file = it.next().ok_or("fmt needs a FILE")?.clone();
                expect_end(it)?;
                Ok(Command::Fmt { file })
            }
            "run" => {
                let file = it.next().ok_or("run needs a FILE")?.clone();
                let mut opts = RunOpts {
                    file,
                    engine: EngineChoice::Parallel,
                    matcher: MatcherKind::Rete,
                    guard: GuardMode::Off,
                    max_cycles: 1_000_000,
                    trace: false,
                    trace_out: None,
                    stats: false,
                    metrics_out: None,
                    dump_wm: false,
                    no_log: false,
                    budgets: Budgets::unlimited(),
                    checkpoint_every: None,
                    checkpoint: None,
                    resume: None,
                };
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--engine" => {
                            opts.engine = match next_val(&mut it, flag)?.as_str() {
                                "parallel" => EngineChoice::Parallel,
                                "lex" => EngineChoice::Serial(Strategy::Lex),
                                "mea" => EngineChoice::Serial(Strategy::Mea),
                                other => return Err(format!("unknown engine '{other}'")),
                            }
                        }
                        "--matcher" => opts.matcher = next_val(&mut it, flag)?.parse()?,
                        "--guard" => {
                            opts.guard = match next_val(&mut it, flag)?.as_str() {
                                "off" => GuardMode::Off,
                                "ww" => GuardMode::WriteWrite,
                                "serializable" => GuardMode::Serializable,
                                other => return Err(format!("unknown guard '{other}'")),
                            }
                        }
                        "--max-cycles" => {
                            opts.max_cycles = next_val(&mut it, flag)?
                                .parse()
                                .map_err(|_| "--max-cycles needs an integer".to_string())?
                        }
                        // `--trace` keeps its original bare-flag meaning
                        // (human-readable per-cycle lines); an optional
                        // non-flag value names a JSONL sink instead.
                        "--trace" => match it.clone().next() {
                            Some(next) if !next.starts_with('-') => {
                                opts.trace_out = Some(next_val(&mut it, flag)?);
                            }
                            _ => opts.trace = true,
                        },
                        "--stats" => opts.stats = true,
                        "--metrics-out" => opts.metrics_out = Some(next_val(&mut it, flag)?),
                        "--dump-wm" => opts.dump_wm = true,
                        "--no-log" => opts.no_log = true,
                        "--timeout" => {
                            let secs: f64 = next_val(&mut it, flag)?
                                .parse()
                                .map_err(|_| "--timeout needs a number of seconds".to_string())?;
                            if !secs.is_finite() || secs < 0.0 {
                                return Err("--timeout needs a non-negative number".into());
                            }
                            opts.budgets.timeout = Some(Duration::from_secs_f64(secs));
                        }
                        "--max-wm" => opts.budgets.max_wm = Some(parse_count(&mut it, flag)?),
                        "--max-cs" => {
                            opts.budgets.max_conflict_set = Some(parse_count(&mut it, flag)?)
                        }
                        "--max-delta" => {
                            opts.budgets.max_delta = Some(parse_count(&mut it, flag)?)
                        }
                        "--checkpoint-every" => {
                            opts.checkpoint_every = Some(parse_count(&mut it, flag)? as u64)
                        }
                        "--checkpoint" => opts.checkpoint = Some(next_val(&mut it, flag)?),
                        "--resume" => opts.resume = Some(next_val(&mut it, flag)?),
                        other => return Err(format!("unknown option '{other}'")),
                    }
                }
                Ok(Command::Run(Box::new(opts)))
            }
            "serve" => {
                let mut opts = ServeOpts::default();
                while let Some(flag) = it.next() {
                    match flag.as_str() {
                        "--stdio" => opts.transport = ServeTransport::Stdio,
                        "--tcp" => opts.transport = ServeTransport::Tcp(next_val(&mut it, flag)?),
                        "--socket" => {
                            opts.transport = ServeTransport::Unix(next_val(&mut it, flag)?)
                        }
                        "--max-sessions" => {
                            opts.max_sessions = parse_count(&mut it, flag)?;
                            if opts.max_sessions == 0 {
                                return Err("--max-sessions must be at least 1".into());
                            }
                        }
                        "--inject-queue" => {
                            opts.inject_queue = parse_count(&mut it, flag)?;
                            if opts.inject_queue == 0 {
                                return Err("--inject-queue must be at least 1".into());
                            }
                        }
                        "--max-cycles" => {
                            opts.max_cycles = next_val(&mut it, flag)?
                                .parse()
                                .map_err(|_| "--max-cycles needs an integer".to_string())?
                        }
                        "--metrics" => {
                            opts.metrics = match next_val(&mut it, flag)?.as_str() {
                                "off" => MetricsLevel::Off,
                                "rules" => MetricsLevel::Rules,
                                "full" => MetricsLevel::Full,
                                other => return Err(format!("unknown metrics level '{other}'")),
                            }
                        }
                        "--timeout" => {
                            let secs: f64 = next_val(&mut it, flag)?
                                .parse()
                                .map_err(|_| "--timeout needs a number of seconds".to_string())?;
                            if !secs.is_finite() || secs < 0.0 {
                                return Err("--timeout needs a non-negative number".into());
                            }
                            opts.budgets.timeout = Some(Duration::from_secs_f64(secs));
                        }
                        "--max-wm" => opts.budgets.max_wm = Some(parse_count(&mut it, flag)?),
                        "--max-cs" => {
                            opts.budgets.max_conflict_set = Some(parse_count(&mut it, flag)?)
                        }
                        "--max-delta" => {
                            opts.budgets.max_delta = Some(parse_count(&mut it, flag)?)
                        }
                        "--wal-dir" => opts.wal_dir = Some(next_val(&mut it, flag)?),
                        "--wal-sync" => {
                            let policy = next_val(&mut it, flag)?;
                            // Validate at parse time so a typo fails the
                            // command line, not the daemon start.
                            parulel_server::SyncPolicy::parse(&policy)?;
                            opts.wal_sync = policy;
                        }
                        "--snapshot-every" => {
                            opts.snapshot_every = next_val(&mut it, flag)?
                                .parse()
                                .map_err(|_| "--snapshot-every needs an integer".to_string())?
                        }
                        "--workers" => {
                            opts.workers = parse_count(&mut it, flag)?;
                            if opts.workers == 0 {
                                return Err("--workers must be at least 1".into());
                            }
                        }
                        "--run-quantum" => {
                            opts.run_quantum = next_val(&mut it, flag)?
                                .parse()
                                .map_err(|_| "--run-quantum needs an integer".to_string())?
                        }
                        other => return Err(format!("unknown option '{other}'")),
                    }
                }
                if opts.wal_dir.is_none()
                    && (opts.wal_sync != "always" || opts.snapshot_every != 64)
                {
                    return Err("--wal-sync/--snapshot-every need --wal-dir".into());
                }
                if opts.transport == ServeTransport::Stdio && opts.workers > 1 {
                    // Stdio is one synchronous pipe — there is nothing to
                    // shard, and pretending otherwise would silently serve
                    // different semantics than the flag promises.
                    return Err("--workers needs --tcp or --socket".into());
                }
                Ok(Command::Serve(Box::new(opts)))
            }
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

fn expect_end(mut it: std::slice::Iter<'_, String>) -> Result<(), String> {
    match it.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument '{extra}'")),
    }
}

fn next_val(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_count(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    next_val(it, flag)?
        .parse()
        .map_err(|_| format!("{flag} needs an integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, String> {
        let v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Command::parse(&v)
    }

    #[test]
    fn help_and_empty() {
        assert!(matches!(parse(&[]), Ok(Command::Help)));
        assert!(matches!(parse(&["--help"]), Ok(Command::Help)));
        assert!(matches!(parse(&["help"]), Ok(Command::Help)));
    }

    #[test]
    fn run_defaults() {
        let Ok(Command::Run(o)) = parse(&["run", "prog.pll"]) else {
            panic!()
        };
        assert_eq!(o.file, "prog.pll");
        assert_eq!(o.engine, EngineChoice::Parallel);
        assert_eq!(o.matcher, MatcherKind::Rete);
        assert!(!o.trace && !o.stats && !o.dump_wm && !o.no_log);
    }

    #[test]
    fn run_full_flags() {
        let Ok(Command::Run(o)) = parse(&[
            "run",
            "x.pll",
            "--engine",
            "mea",
            "--matcher",
            "prete:4",
            "--guard",
            "serializable",
            "--max-cycles",
            "99",
            "--trace",
            "--stats",
            "--dump-wm",
            "--no-log",
        ]) else {
            panic!()
        };
        assert_eq!(o.engine, EngineChoice::Serial(Strategy::Mea));
        assert_eq!(o.matcher, MatcherKind::PartitionedRete(4));
        assert_eq!(o.guard, GuardMode::Serializable);
        assert_eq!(o.max_cycles, 99);
        assert!(o.trace && o.stats && o.dump_wm && o.no_log);
    }

    #[test]
    fn matcher_parse_errors() {
        assert!(parse(&["run", "x", "--matcher", "bogus"]).is_err());
        assert!(parse(&["run", "x", "--matcher", "prete:"]).is_err());
        assert!(parse(&["run", "x", "--matcher", "prete:abc"]).is_err());
    }

    #[test]
    fn zero_workers_rejected_with_clear_error() {
        for m in ["ptreat:0", "prete:0"] {
            let err = parse(&["run", "x", "--matcher", m]).unwrap_err();
            assert!(err.contains("worker count must be at least 1"), "{err}");
            assert!(err.contains(m), "{err}");
        }
        // 1 remains valid (a degenerate but honest partition).
        let Ok(Command::Run(o)) = parse(&["run", "x", "--matcher", "ptreat:1"]) else {
            panic!()
        };
        assert_eq!(o.matcher, MatcherKind::PartitionedTreat(1));
    }

    #[test]
    fn trace_flag_is_bare_or_takes_a_sink_path() {
        // Bare: human-readable per-cycle lines.
        let Ok(Command::Run(o)) = parse(&["run", "x", "--trace", "--stats"]) else {
            panic!()
        };
        assert!(o.trace && o.stats);
        assert!(o.trace_out.is_none());
        // Trailing bare flag.
        let Ok(Command::Run(o)) = parse(&["run", "x", "--trace"]) else {
            panic!()
        };
        assert!(o.trace && o.trace_out.is_none());
        // With a path: JSONL sink, no human trace.
        let Ok(Command::Run(o)) = parse(&["run", "x", "--trace", "t.jsonl"]) else {
            panic!()
        };
        assert!(!o.trace);
        assert_eq!(o.trace_out.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn metrics_out_takes_a_path() {
        let Ok(Command::Run(o)) = parse(&["run", "x", "--metrics-out", "m.json"]) else {
            panic!()
        };
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert!(parse(&["run", "x", "--metrics-out"]).is_err());
    }

    #[test]
    fn robustness_flags_parse() {
        let Ok(Command::Run(o)) = parse(&[
            "run",
            "x.pll",
            "--timeout",
            "2.5",
            "--max-wm",
            "1000",
            "--max-cs",
            "500",
            "--max-delta",
            "200",
            "--checkpoint-every",
            "10",
            "--checkpoint",
            "state.snap",
            "--resume",
            "old.snap",
        ]) else {
            panic!()
        };
        assert_eq!(
            o.budgets.timeout,
            Some(std::time::Duration::from_millis(2500))
        );
        assert_eq!(o.budgets.max_wm, Some(1000));
        assert_eq!(o.budgets.max_conflict_set, Some(500));
        assert_eq!(o.budgets.max_delta, Some(200));
        assert_eq!(o.checkpoint_every, Some(10));
        assert_eq!(o.checkpoint.as_deref(), Some("state.snap"));
        assert_eq!(o.resume.as_deref(), Some("old.snap"));
        // Defaults are all off.
        let Ok(Command::Run(o)) = parse(&["run", "x.pll"]) else {
            panic!()
        };
        assert!(o.budgets.is_unlimited());
        assert!(o.checkpoint_every.is_none() && o.checkpoint.is_none() && o.resume.is_none());
    }

    #[test]
    fn robustness_flags_work_with_any_engine_but_reject_bad_values() {
        // Regression (engine unification): budgets/checkpoint/resume used
        // to be parallel-only hard errors; the unified core serves every
        // policy, so serial engines accept them now.
        let Ok(Command::Run(o)) = parse(&["run", "x", "--engine", "lex", "--max-wm", "5"]) else {
            panic!()
        };
        assert_eq!(o.engine, EngineChoice::Serial(Strategy::Lex));
        assert_eq!(o.budgets.max_wm, Some(5));
        let Ok(Command::Run(o)) = parse(&["run", "x", "--resume", "s.snap", "--engine", "mea"])
        else {
            panic!()
        };
        assert_eq!(o.resume.as_deref(), Some("s.snap"));
        assert!(parse(&["run", "x", "--timeout", "-1"]).is_err());
        assert!(parse(&["run", "x", "--timeout", "inf"]).is_err());
        assert!(parse(&["run", "x", "--timeout", "soon"]).is_err());
        assert!(parse(&["run", "x", "--max-wm", "many"]).is_err());
        assert!(parse(&["run", "x", "--checkpoint"]).is_err());
    }

    #[test]
    fn serve_defaults_to_stdio() {
        let Ok(Command::Serve(o)) = parse(&["serve"]) else {
            panic!()
        };
        assert_eq!(o.transport, ServeTransport::Stdio);
        assert_eq!(o.max_sessions, 64);
        assert_eq!(o.inject_queue, 1024);
        assert_eq!(o.max_cycles, 1_000_000);
        assert_eq!(o.metrics, MetricsLevel::Rules);
        assert!(o.budgets.is_unlimited());
        assert_eq!(o.wal_dir, None);
        assert_eq!(o.wal_sync, "always");
        assert_eq!(o.snapshot_every, 64);
        assert_eq!(o.workers, 1);
        assert_eq!(o.run_quantum, 32);
    }

    #[test]
    fn serve_scheduler_flags_parse() {
        let Ok(Command::Serve(o)) = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--run-quantum",
            "8",
        ]) else {
            panic!()
        };
        assert_eq!(o.workers, 4);
        assert_eq!(o.run_quantum, 8);
        // `--run-quantum 0` means unsliced runs; still legal.
        let Ok(Command::Serve(o)) =
            parse(&["serve", "--socket", "/tmp/s.sock", "--run-quantum", "0"])
        else {
            panic!()
        };
        assert_eq!(o.run_quantum, 0);
        // Quantum without extra workers is fine on stdio (there is a
        // scheduler of one behind sockets, none behind stdio).
        assert!(parse(&["serve", "--workers", "1"]).is_ok());
    }

    #[test]
    fn serve_scheduler_flags_reject_bad_values() {
        assert!(parse(&["serve", "--workers", "0"]).is_err());
        assert!(parse(&["serve", "--workers", "some"]).is_err());
        assert!(parse(&["serve", "--run-quantum", "fast"]).is_err());
        // Sharding stdin across threads is meaningless; refuse loudly.
        assert!(parse(&["serve", "--workers", "4"]).is_err());
        assert!(parse(&["serve", "--stdio", "--workers", "2"]).is_err());
    }

    #[test]
    fn serve_wal_flags_parse() {
        let Ok(Command::Serve(o)) = parse(&[
            "serve",
            "--wal-dir",
            "/tmp/parulel-wal",
            "--wal-sync",
            "interval",
            "--snapshot-every",
            "16",
        ]) else {
            panic!()
        };
        assert_eq!(o.wal_dir.as_deref(), Some("/tmp/parulel-wal"));
        assert_eq!(o.wal_sync, "interval");
        assert_eq!(o.snapshot_every, 16);
        // `--snapshot-every 0` disables compaction but is legal.
        let Ok(Command::Serve(o)) =
            parse(&["serve", "--wal-dir", "d", "--snapshot-every", "0"])
        else {
            panic!()
        };
        assert_eq!(o.snapshot_every, 0);
    }

    #[test]
    fn serve_wal_flags_reject_bad_values() {
        assert!(parse(&["serve", "--wal-dir"]).is_err());
        assert!(parse(&["serve", "--wal-dir", "d", "--wal-sync", "sometimes"]).is_err());
        assert!(parse(&["serve", "--wal-dir", "d", "--snapshot-every", "few"]).is_err());
        // Tuning flags without the directory are a config mistake.
        assert!(parse(&["serve", "--wal-sync", "never"]).is_err());
        assert!(parse(&["serve", "--snapshot-every", "8"]).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let Ok(Command::Serve(o)) = parse(&[
            "serve",
            "--tcp",
            "127.0.0.1:7466",
            "--max-sessions",
            "8",
            "--inject-queue",
            "256",
            "--max-cycles",
            "500",
            "--metrics",
            "full",
            "--timeout",
            "1.5",
            "--max-wm",
            "4000",
            "--max-cs",
            "900",
            "--max-delta",
            "300",
        ]) else {
            panic!()
        };
        assert_eq!(o.transport, ServeTransport::Tcp("127.0.0.1:7466".into()));
        assert_eq!(o.max_sessions, 8);
        assert_eq!(o.inject_queue, 256);
        assert_eq!(o.max_cycles, 500);
        assert_eq!(o.metrics, MetricsLevel::Full);
        assert_eq!(
            o.budgets.timeout,
            Some(std::time::Duration::from_millis(1500))
        );
        assert_eq!(o.budgets.max_wm, Some(4000));
        assert_eq!(o.budgets.max_conflict_set, Some(900));
        assert_eq!(o.budgets.max_delta, Some(300));

        let Ok(Command::Serve(o)) = parse(&["serve", "--socket", "/tmp/parulel.sock"]) else {
            panic!()
        };
        assert_eq!(o.transport, ServeTransport::Unix("/tmp/parulel.sock".into()));
        // The last transport flag wins.
        let Ok(Command::Serve(o)) = parse(&["serve", "--tcp", "127.0.0.1:1", "--stdio"]) else {
            panic!()
        };
        assert_eq!(o.transport, ServeTransport::Stdio);
    }

    #[test]
    fn serve_rejects_bad_values() {
        assert!(parse(&["serve", "--tcp"]).is_err());
        assert!(parse(&["serve", "--socket"]).is_err());
        assert!(parse(&["serve", "--max-sessions", "0"]).is_err());
        assert!(parse(&["serve", "--inject-queue", "0"]).is_err());
        assert!(parse(&["serve", "--max-cycles", "many"]).is_err());
        assert!(parse(&["serve", "--metrics", "loud"]).is_err());
        assert!(parse(&["serve", "--timeout", "-2"]).is_err());
        assert!(parse(&["serve", "--bogus"]).is_err());
    }

    #[test]
    fn error_cases() {
        assert!(parse(&["run"]).is_err());
        assert!(parse(&["check"]).is_err());
        assert!(parse(&["check", "a", "b"]).is_err());
        assert!(parse(&["run", "x", "--engine"]).is_err());
        assert!(parse(&["run", "x", "--engine", "warp"]).is_err());
        assert!(parse(&["run", "x", "--max-cycles", "many"]).is_err());
        assert!(parse(&["explode"]).is_err());
        assert!(parse(&["run", "x", "--bogus"]).is_err());
    }
}
