//! `parulel-benchmark`: the harness behind `benchmark/run.sh`.
//!
//! ```text
//! one run (the driver's contract; prints the contract line last):
//!   --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! every workload, with the noise floor:
//!   [--seed N] [--reps N] [--seconds S] [--trace] [--smoke]
//! judge one suite report against another:
//!   --compare A.json B.json
//! ```
//!
//! `run.sh` builds the daemon and this binary and passes `--daemon PATH`.

use parulel_benchmark::compare::{self, WorkloadRuns};
use parulel_benchmark::json::Json;
use parulel_benchmark::serve::Env;
use parulel_benchmark::sizes::Sizes;
use parulel_benchmark::{run_workload, spec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 1991;

struct Args {
    daemon: Option<PathBuf>,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    reps: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        daemon: None,
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        reps: 1,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--daemon" => args.daemon = Some(value("a path")?.into()),
            "--out" => args.out = value("a directory")?.into(),
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--reps" => {
                args.reps = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if args.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => {
                let a = value("two report files")?;
                let b = it
                    .next()
                    .cloned()
                    .ok_or("--compare needs two report files")?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

impl Args {
    fn daemon(&self) -> Result<&Path, String> {
        self.daemon
            .as_deref()
            .ok_or_else(|| "--daemon PATH is required (benchmark/run.sh passes it)".to_string())
    }
}

fn sizes(smoke: bool) -> &'static Sizes {
    if smoke {
        &Sizes::SMOKE
    } else {
        &Sizes::FULL
    }
}

fn run_file(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("{workload}.t{}.json", trace as u8))
}

/// One run of one workload in this process: the driver's contract.
fn single(args: &Args, workload: &str) -> Result<bool, String> {
    let daemon = args.daemon()?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.5 } else { 10.0 });
    let env = Env {
        daemon_bin: daemon,
        out_dir: &args.out,
        sizes: sizes(args.smoke),
    };
    let mut report =
        run_workload(workload, args.seed, seconds, args.trace, &env).ok_or_else(|| {
            format!(
                "unknown workload {workload:?}; one of {:?}",
                spec::workload_names().collect::<Vec<_>>()
            )
        })?;
    for name in report.missing_metrics() {
        report
            .tally
            .violation(format!("metric {name} was not measured"));
    }
    if report.metrics.values().any(|m| !m.value.is_finite()) {
        report.tally.violation("a metric has no finite value");
    }
    report.print_table();
    std::fs::write(
        run_file(&args.out, workload, args.trace),
        report.to_json().render() + "\n",
    )
    .map_err(|e| format!("saving the run record: {e}"))?;
    println!("{}", report.contract_line());
    Ok(report.correct())
}

/// Runs one workload in a fresh child process and returns its saved
/// record, after checking the contract line it printed.
fn child_run(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let daemon = args.daemon()?;
    let mut cmd = Command::new(exe);
    cmd.arg("--daemon").arg(daemon).arg("--out").arg(&args.out);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    check_contract_line(last, trace).map_err(|e| format!("{workload}: {e}\n{stdout}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: run failed\n{stdout}"));
    }
    let saved =
        std::fs::read_to_string(run_file(&args.out, workload, trace)).map_err(|e| e.to_string())?;
    Json::parse(&saved)
}

/// The schema the driver expects of a run's last line.
fn check_contract_line(line: &str, trace: bool) -> Result<(), String> {
    let doc = Json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let keys: Vec<&str> = doc
        .as_obj()
        .ok_or("last line is not an object")?
        .keys()
        .map(String::as_str)
        .collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("last line has keys {keys:?}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?;
    let mut declared = spec::declared(trace);
    declared.sort_unstable();
    let reported: Vec<&str> = metrics.keys().map(String::as_str).collect();
    if reported != declared {
        return Err(format!(
            "metrics reported {reported:?}, declared {declared:?}"
        ));
    }
    Ok(())
}

/// Every workload `reps` times in alternating order, each run a fresh
/// process; prints the noise table and saves the suite report.
fn suite(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    // A smoke suite runs everything twice: its point is that two
    // back-to-back runs agree on every exact count.
    let reps = if args.smoke {
        args.reps.max(2)
    } else {
        args.reps
    };
    let traced_reps = if args.smoke {
        2
    } else {
        usize::from(args.trace)
    };
    let mut runs: BTreeMap<&str, WorkloadRuns> = BTreeMap::new();
    let mut ok = true;
    for rep in 0..reps.max(traced_reps) {
        let mut order: Vec<&str> = spec::workload_names().collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            for trace in [false, true] {
                if rep >= if trace { traced_reps } else { reps } {
                    continue;
                }
                eprintln!(
                    "rep {} of {reps}: {workload} trace {}",
                    rep + 1,
                    trace as u8
                );
                match child_run(args, workload, trace) {
                    Ok(record) => {
                        ok &= record.get("correct") == Some(&Json::Bool(true));
                        runs.entry(workload).or_default().absorb(&record);
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    for (workload, r) in &runs {
        compare::print_noise_table(workload, r);
        if args.trace || args.smoke {
            for (name, unit, _) in spec::PER_LAYER {
                if let Some(v) = r.per_layer.get(*name) {
                    println!("  {name:<32} {v:>16.6} {unit}");
                }
            }
        }
        for (name, n) in &r.counts {
            println!("  count {name:<26} {n:>16}");
        }
        for name in &r.count_conflicts {
            println!("  NOT DETERMINISTIC: {name} differed between repetitions");
            ok = false;
        }
    }
    let report = Json::obj([
        ("seed", Json::from(args.seed)),
        ("reps", Json::from(reps as u64)),
        ("smoke", Json::from(args.smoke)),
        (
            "workloads",
            Json::obj(runs.iter().map(|(w, r)| (*w, r.to_json()))),
        ),
    ]);
    let path = args.out.join("report.json");
    std::fs::write(&path, report.render() + "\n")
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    println!("suite report: {}", path.display());
    println!(
        "{}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let violations = compare::compare(&load(a)?, &load(b)?);
    for v in &violations {
        println!("{v}");
    }
    println!("{} violation(s)", violations.len());
    Ok(violations.is_empty())
}

fn main() -> ExitCode {
    // Pinned before any thread exists; the daemon children inherit it.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "2");
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare_files(a, b),
        (None, Some(workload)) => single(&args, workload),
        (None, None) => suite(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("parulel-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
