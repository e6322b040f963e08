//! `loadgen` — resident-session scale sweep for the `parulel serve`
//! daemon.
//!
//! Unlike the figure/table harnesses, which call the engine in-process,
//! this binary drives the *serving* path over real TCP sockets: it boots
//! the sharded scheduler in-process and multiplexes 100/1k/10k resident
//! sessions over 16 connections through the line-delimited JSON
//! protocol — every session is opened and injected first (so peak
//! residency equals the session count), then all are run to fixpoint,
//! then all are closed.
//!
//! Emits `BENCH_serve.json` (parulel-bench/v1): one row per session
//! count with frame-latency percentiles, frames/s, peak residency, and a
//! fairness metric (max/mean per-session cycle share — 1.0 is perfectly
//! even service).
//!
//! Session churn, WAL durability + recovery, and run-vs-neighbour
//! contention are measured by the repo benchmark against the real
//! daemon binary (`benchmark/README.md`: `serve-churn`, `serve-durable`,
//! `serve-contend`); this sweep is the one serve-path measurement that
//! lives only here.
//!
//! ```text
//! loadgen [--scale N,N,...]
//!   --scale    resident-session counts to sweep  [100,1000,10000]
//! ```

use parulel_bench::{BenchReport, Table};
use parulel_engine::Json;
use parulel_server::{spawn_sched_tcp, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

/// The transitive-closure program every session runs: a chain of edges
/// makes run length directly proportional to chain length, so the
/// 7-edge chain below keeps each run short and the sweep frame-bound.
const CHAIN_PROGRAM: &str = "(literalize edge from to)\
(literalize reach from to)\
(p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>) --> (make reach ^from <a> ^to <b>))\
(p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>) -(reach ^from <a> ^to <c>) --> (make reach ^from <a> ^to <c>))";

/// A minimal protocol client.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: std::net::SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// One frame round trip; panics on a refused frame.
    fn call(&mut self, frame: &str) -> Json {
        self.writer.write_all(frame.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        let doc = Json::parse(response.trim()).expect("response is JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{frame} -> {response}");
        doc
    }

    /// `call` with the round trip recorded in milliseconds.
    fn timed(&mut self, frame: &str, latencies_ms: &mut Vec<f64>) -> Json {
        let start = Instant::now();
        let doc = self.call(frame);
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        doc
    }
}

/// The one `inject` payload every session receives: the chain
/// `1->2->...->8`.
const CHAIN_ADDS: &str = r#"[{"class":"edge","fields":[1,2]},{"class":"edge","fields":[2,3]},{"class":"edge","fields":[3,4]},{"class":"edge","fields":[4,5]},{"class":"edge","fields":[5,6]},{"class":"edge","fields":[6,7]},{"class":"edge","fields":[7,8]}]"#;

/// One scaling row: `total` sessions multiplexed over `conns`
/// connections against a sharded daemon.
struct ScaleRow {
    wall: Duration,
    frames: usize,
    p50: f64,
    p99: f64,
    cycles: f64,
    firings: f64,
    peak_wm: f64,
    fairness: f64,
    peak_sessions: f64,
}

fn scale_leg(workers: usize, quantum: u64, total: usize, conns: usize) -> ScaleRow {
    let mut servers: Vec<Server> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let mut server = Server::new(ServerConfig {
            max_sessions: total + conns,
            metrics: parulel_engine::MetricsLevel::Off,
            ..ServerConfig::default()
        });
        if let Some(first) = servers.first() {
            server.share_admission(first.admission_gauge());
        }
        servers.push(server);
    }
    let (addr, daemon) =
        spawn_sched_tcp(servers, quantum, 256, "127.0.0.1:0").expect("bind scheduler");

    let started = Instant::now();
    let drivers: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut wire = Wire::connect(addr);
                let mut latencies_ms = Vec::new();
                let mut cycles = Vec::new();
                let mut firings = 0.0;
                let mut peak_wm = 0.0f64;
                let mine = (c..total).step_by(conns);
                // Open every owned session first (peak residency =
                // `total`), then run them all, then close them all.
                for s in mine.clone() {
                    let name = format!("s{s}");
                    wire.timed(
                        &format!(
                            r#"{{"op":"open","session":"{name}","program":"{CHAIN_PROGRAM}"}}"#
                        ),
                        &mut latencies_ms,
                    );
                    wire.timed(
                        &format!(r#"{{"op":"inject","session":"{name}","adds":{CHAIN_ADDS}}}"#),
                        &mut latencies_ms,
                    );
                }
                for s in mine.clone() {
                    let run = wire.timed(
                        &format!(r#"{{"op":"run","session":"s{s}"}}"#),
                        &mut latencies_ms,
                    );
                    cycles.push(num(&run, "cycles"));
                    firings += num(&run, "firings");
                    peak_wm = peak_wm.max(num(&run, "wm"));
                }
                for s in mine {
                    wire.timed(
                        &format!(r#"{{"op":"close","session":"s{s}"}}"#),
                        &mut latencies_ms,
                    );
                }
                (latencies_ms, cycles, firings, peak_wm)
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::new();
    let mut cycles: Vec<f64> = Vec::new();
    let mut firings = 0.0;
    let mut peak_wm = 0.0f64;
    for driver in drivers {
        let (l, c, f, w) = driver.join().expect("driver");
        latencies.extend(l);
        cycles.extend(c);
        firings += f;
        peak_wm = peak_wm.max(w);
    }
    let wall = started.elapsed();
    latencies.sort_by(|a, b| a.total_cmp(b));

    let mut control = Wire::connect(addr);
    let metrics = control.call(r#"{"op":"metrics"}"#);
    let peak_sessions = num(&metrics, "peak_sessions");
    control.call(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits");

    // Fairness: max/mean per-session cycle share. Sessions run the same
    // workload, so perfectly even service is exactly 1.0; a starved or
    // favored session shows up as a skewed max.
    let mean = cycles.iter().sum::<f64>() / (cycles.len() as f64).max(1.0);
    let fairness = cycles.iter().copied().fold(0.0, f64::max) / mean.max(1e-9);

    ScaleRow {
        wall,
        frames: latencies.len(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        cycles: cycles.iter().sum(),
        firings,
        peak_wm,
        fairness,
        peak_sessions,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Vec<usize> = vec![100, 1000, 10_000];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        assert_eq!(arg, "--scale", "usage: loadgen [--scale N,N,...]");
        let list = it.next().expect("--scale needs N,N,...");
        scale = list
            .split(',')
            .map(|n| n.trim().parse().expect("--scale entries must be integers"))
            .collect();
    }

    const WORKERS: usize = 4;
    const QUANTUM: u64 = 32;
    const CONNS: usize = 16;
    println!("scaling: sessions resident over {CONNS} connections, workers={WORKERS}\n");
    let mut st = Table::new(&[
        "sessions",
        "frames/s",
        "p50 ms",
        "p99 ms",
        "fairness max/mean",
        "peak resident",
    ]);
    let mut rep = BenchReport::new(
        "serve",
        "protocol loadgen: resident-session scale sweep through the sharded scheduler over TCP",
    );
    for &total in &scale {
        let row = scale_leg(WORKERS, QUANTUM, total, CONNS.min(total));
        let frames_per_sec = row.frames as f64 / row.wall.as_secs_f64().max(1e-9);
        st.row(vec![
            total.to_string(),
            format!("{frames_per_sec:.0}"),
            format!("{:.3}", row.p50),
            format!("{:.3}", row.p99),
            format!("{:.3}", row.fairness),
            format!("{:.0}", row.peak_sessions),
        ]);
        // Per-phase engine timings are not collected (`metrics_level:
        // "off"`): the sweep measures *serving* latency, not kernel
        // phase splits, so those columns are zero.
        rep.push(
            Json::obj()
                .set("workload", "scaling")
                .set("matcher", "rete")
                .set("shards", 1usize)
                .set("cycles", row.cycles)
                .set("firings", row.firings)
                .set("wall_ms", row.wall.as_secs_f64() * 1e3)
                .set("peak_wm", row.peak_wm)
                .set("match_ms", 0.0)
                .set("redact_ms", 0.0)
                .set("fire_ms", 0.0)
                .set("apply_ms", 0.0)
                .set("peak_conflict_set", 0.0)
                .set("metrics_level", "off")
                .set("top_rules", Vec::<Json>::new())
                .set("transport", "tcp")
                .set("scheduler", "sharded")
                .set("workers", WORKERS)
                .set("run_quantum", QUANTUM)
                .set("sessions", total)
                .set("frames", row.frames)
                .set("frames_per_sec", frames_per_sec)
                .set("p50_frame_ms", row.p50)
                .set("p99_frame_ms", row.p99)
                .set("fairness_max_over_mean", row.fairness)
                .set("peak_sessions", row.peak_sessions),
        );
    }
    st.print();

    rep.emit();
}
